package core

import (
	"slices"
	"sort"

	"flexlog/internal/types"
)

// placeCacheLimit bounds the placement cache, in records.
const placeCacheLimit = 8192

// placeCache is the client-side placement cache: the SNs this client
// appended, mapped to the shard storing them. A hit lets Read query a
// single replica of one shard instead of one replica of every shard; a
// stale hint degrades gracefully to the full protocol. It remembers one
// run per append batch, kept per color sorted by SN (the ordering layer
// hands each SN of a color out once, so runs never overlap). Guarded by
// the client's mutex.
type placeCache struct {
	colors  map[types.ColorID][]placeRun
	records int    // records the runs cover, at most placeCacheLimit
	stamp   uint64 // remember calls so far
}

// placeRun says SNs first…first+n-1 of a color live on shard.
type placeRun struct {
	first types.SN
	n     int
	shard types.ShardID
	stamp uint64 // when it was remembered: the oldest goes first
}

// remember records that the n SNs ending at last live on shard, dropping
// the oldest runs beyond the bound: a color's lowest run (its oldest, as
// SNs grow with time), taken from the color whose lowest run is oldest.
func (p *placeCache) remember(color types.ColorID, last types.SN, n int, shard types.ShardID) {
	n = min(n, placeCacheLimit)
	for p.records+n > placeCacheLimit {
		p.dropOldest()
	}
	if p.colors == nil {
		p.colors = make(map[types.ColorID][]placeRun)
	}
	p.stamp++
	runs := p.colors[color]
	r := placeRun{first: last - types.SN(n-1), n: n, shard: shard, stamp: p.stamp}
	i := len(runs)
	for i > 0 && runs[i-1].first > r.first { // almost always appends
		i--
	}
	p.colors[color] = slices.Insert(runs, i, r)
	p.records += n
}

func (p *placeCache) dropOldest() {
	var oldest types.ColorID
	var at uint64
	for c, runs := range p.colors {
		if at == 0 || runs[0].stamp < at {
			oldest, at = c, runs[0].stamp
		}
	}
	runs := p.colors[oldest]
	p.records -= runs[0].n
	if len(runs) == 1 {
		delete(p.colors, oldest)
		return
	}
	p.colors[oldest] = runs[1:]
}

// lookup returns the shard a remembered SN lives on.
func (p *placeCache) lookup(color types.ColorID, sn types.SN) (types.ShardID, bool) {
	runs := p.colors[color]
	i := sort.Search(len(runs), func(i int) bool { return runs[i].first > sn }) - 1
	if i < 0 || sn >= runs[i].first+types.SN(runs[i].n) {
		return 0, false
	}
	return runs[i].shard, true
}
