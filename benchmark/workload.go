package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"time"

	"flexlog/internal/types"
)

// workload describes one named traffic mix. The fields are the whole
// definition: nothing else in the program branches on a workload's name.
type workload struct {
	Name string
	Why  string

	Tree       bool // sequencer tree with two leaf regions, else one region
	PMBudgetMB int  // replicas' PM budget (0 = none)

	// Rate is the open loop the measured window runs: ops per second in
	// total, issued on a tick schedule whatever the system's pace, each timed
	// from its tick's due time. It is set so that the process uses about a
	// third of the reference host's two cores: little queues, and a change in
	// the host's speed moves the latencies by less than it would at
	// saturation.
	Rate int
	// Callers is the workload's closed loop: goroutines that each issue their
	// next op when the previous one completed. It runs instead of the open
	// loop when a saturated run is asked for (--callers, and one third of a
	// --trace 1 run).
	Callers int

	RecordBytes  int
	ReadPercent  int // share of ops that are reads
	MultiPercent int // share of ops that are multi-color appends
	Preload      int // records appended during set-up, before warm-up
	// TrimWindow is the number of newest records a background trimmer
	// keeps live in color 0 (0 = no trimmer).
	TrimWindow int
}

const (
	// warmupTime is how long a run's loop runs, untimed, before the window
	// opens. It is a time and not an op count so that most of setup_s does not move
	// with the host's speed, which changes by the minute (see README.md).
	warmupTime   = time.Second
	trimInterval = 500 * time.Millisecond
	recentWindow = 8 << 10 // "newest records" a read prefers
	recentPct    = 80
	minTick      = time.Millisecond
	maxTick      = 2 * time.Millisecond
)

var workloads = []workload{
	{
		Name: "append_open",
		Why:  "open loop, 10000 appends/s of 128 B, a fifth of saturation: latency is the critical path itself (linger, two loopback hops, persist, one ordering round, commit) with nearly empty batches",
		Rate: 10000, Callers: 64, RecordBytes: 128,
	},
	{
		Name: "append_bulk",
		Why:  "open loop, 15000 appends/s of 1 KiB, rolling trim, a quarter of saturation: client batches, group commit, order coalescing and segment reclaim at work, plus the byte work the 128 B workloads lack",
		Rate: 15000, Callers: 64, RecordBytes: 1024, TrimWindow: 20000,
	},
	{
		Name: "read_mixed",
		Why:  "open loop, 10000 ops/s, 95% reads / 5% appends over a 48 Ki x 1 KiB log (3x the DRAM cache, 1.5x the PM budget): read lane, cache, PM and cold-tier reads with writes beside them",
		Rate: 10000, Callers: 16, RecordBytes: 1024, ReadPercent: 95, Preload: 48 << 10, PMBudgetMB: 32,
	},
	{
		Name: "multicolor_tree",
		Why:  "open loop, 1000 ops/s under a master with two leaf regions: 90% 128 B appends to colors 0,1,2, 10% multi-color appends to {1,2}: sequencer-tree aggregation and the Alg. 2 multi-append protocol",
		Rate: 1000, Callers: 32, RecordBytes: 128, MultiPercent: 10, Tree: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec(handles int) clusterSpec {
	return clusterSpec{Tree: w.Tree, PMBudgetMB: w.PMBudgetMB, Handles: handles}
}

// focus is the op class whose latency is the workload's focus_p50_us: reads
// where the workload reads, appends elsewhere. (Multi-color appends are a
// chain of rounds with nothing but CPU in it; their median did not repeat
// well enough to carry a bound and is reported per layer.)
func (w workload) focus() opKind {
	if w.ReadPercent > 0 {
		return opRead
	}
	return opAppend
}

type opKind uint8

const (
	opAppend opKind = iota
	opRead
	opMulti
	numOpKinds
)

func (k opKind) String() string { return [...]string{"append", "read", "multi"}[k] }

// subSeed derives independent seeds for the generators of one run.
func subSeed(seed int64, stream string, n int) int64 {
	h := crc32.NewIEEE()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	h.Write(b[:])
	h.Write([]byte(stream))
	return seed*1000003 + int64(h.Sum32())
}

// ---- op mix ----

// opChoice is one decision of a caller or generator, drawn from the seed
// alone: which op, to which color, and — for a read — which record, as a
// draw the issuer maps onto the records acknowledged so far.
type opChoice struct {
	Kind   opKind
	Color  types.ColorID
	Recent bool   // read one of the newest recentWindow records
	Pick   uint64 // uniform draw selecting the record
}

// opGen yields the op sequence of one issuer (a closed-loop caller or an
// open-loop generator) as a pure function of (seed, issuer).
type opGen struct {
	w      workload
	issuer int
	rng    *rand.Rand
	n      uint64
}

func newOpGen(w workload, seed int64, issuer int) *opGen {
	return &opGen{w: w, issuer: issuer, rng: rand.New(rand.NewSource(subSeed(seed, "ops", issuer)))}
}

func (g *opGen) next() opChoice {
	i := g.n
	g.n++
	kind := opAppend
	if g.w.ReadPercent+g.w.MultiPercent > 0 {
		switch draw := g.rng.Intn(100); {
		case draw < g.w.MultiPercent:
			kind = opMulti
		case draw < g.w.MultiPercent+g.w.ReadPercent:
			kind = opRead
		}
	}
	switch {
	case kind == opRead:
		return opChoice{Kind: opRead, Recent: g.rng.Intn(100) < recentPct, Pick: g.rng.Uint64()}
	case kind == opAppend && g.w.Tree:
		return opChoice{Kind: opAppend, Color: treeColors[(uint64(g.issuer)+i)%uint64(len(treeColors))]}
	default:
		return opChoice{Kind: kind}
	}
}

// ---- arrival schedule ----

// tick is one wake-up of an open-loop generator: N appends due at Due
// (offset from the start of the measured window).
type tick struct {
	Due time.Duration
	N   int
}

// buildSchedule lays out one generator's arrivals for the window: ticks of
// seeded length between minTick and maxTick, each carrying the appends that
// fell due since the previous one at the generator's share of the rate.
func buildSchedule(seed int64, gen, gens, rate int, window time.Duration) []tick {
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule", gen)))
	perSec := float64(rate) / float64(gens)
	var out []tick
	var owed float64
	for at := time.Duration(0); at < window; {
		step := minTick + time.Duration(rng.Int63n(int64(maxTick-minTick)+1))
		at += step
		owed += perSec * step.Seconds()
		n := int(owed)
		owed -= float64(n)
		if n > 0 && at < window {
			out = append(out, tick{Due: at, N: n})
		}
	}
	return out
}

// ---- payloads ----

// Payload layout: a header naming the op that wrote the record, a checksum
// over everything else, and seeded filler. A record is therefore
// recomputable from (seed, kind, caller, index, color, size) alone.
const (
	hdrKind     = 0  // 1 byte opKind, 3 bytes zero
	hdrCaller   = 4  // uint32
	hdrIndex    = 8  // uint64
	hdrColor    = 16 // uint32
	hdrChecksum = 20 // uint32 crc32 of the payload with this field zero
	payloadHdr  = 24
	fillerPool  = 64 << 10
)

type payloads struct {
	pool []byte
}

func newPayloads(seed int64, maxRecord int) *payloads {
	p := &payloads{pool: make([]byte, fillerPool+maxRecord)}
	rand.New(rand.NewSource(subSeed(seed, "payload", 0))).Read(p.pool)
	return p
}

// opID names one write: which caller's which op.
type opID struct {
	Kind   opKind
	Caller uint32
	Index  uint64
}

func (p *payloads) build(id opID, color types.ColorID, size int) []byte {
	b := make([]byte, size)
	b[hdrKind] = byte(id.Kind)
	binary.LittleEndian.PutUint32(b[hdrCaller:], id.Caller)
	binary.LittleEndian.PutUint64(b[hdrIndex:], id.Index)
	binary.LittleEndian.PutUint32(b[hdrColor:], uint32(color))
	off := (uint64(id.Caller)*0x9E3779B97F4A7C15 + id.Index*0xC2B2AE3D27D4EB4F) % fillerPool
	copy(b[payloadHdr:], p.pool[off:])
	binary.LittleEndian.PutUint32(b[hdrChecksum:], checksum(b))
	return b
}

func checksum(b []byte) uint32 {
	c := crc32.ChecksumIEEE(b[:hdrChecksum])
	return crc32.Update(c, crc32.IEEETable, b[payloadHdr:])
}

// parsePayload reads a record's header; ok is false when the record is too
// short or its checksum does not match.
func parsePayload(b []byte) (id opID, color types.ColorID, ok bool) {
	if len(b) < payloadHdr {
		return opID{}, 0, false
	}
	id = opID{
		Kind:   opKind(b[hdrKind]),
		Caller: binary.LittleEndian.Uint32(b[hdrCaller:]),
		Index:  binary.LittleEndian.Uint64(b[hdrIndex:]),
	}
	color = types.ColorID(binary.LittleEndian.Uint32(b[hdrColor:]))
	return id, color, binary.LittleEndian.Uint32(b[hdrChecksum:]) == checksum(b)
}
