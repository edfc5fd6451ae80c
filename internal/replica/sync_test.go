package replica

import (
	"slices"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/topology"
	"flexlog/internal/types"
)

// leafShard is a topology of a master region (sequencer 900) and one leaf
// region 1 (sequencer 910) whose shard 1 holds the given replicas: those
// replicas follow two sequencer groups, each with its own epochs.
func leafShard(t *testing.T, replicas ...types.NodeID) *topology.Topology {
	t.Helper()
	topo := topology.New()
	if err := topo.AddRegion(0, 0, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddRegion(1, 0, 910, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, 1, replicas); err != nil {
		t.Fatal(err)
	}
	return topo
}

// seqInitAcks lists the epochs of the SeqInitAcks sent so far.
func (e *recordingEndpoint) seqInitAcks() []types.Epoch {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []types.Epoch
	for _, m := range e.sent {
		if a, ok := m.(proto.SeqInitAck); ok {
			out = append(out, a.Epoch)
		}
	}
	return out
}

// awaitSeqInitAcks waits for the SeqInitAcks of the given epochs, which a
// finished sync-phase sends from a goroutine, and fails on any other.
func awaitSeqInitAcks(t *testing.T, ep *recordingEndpoint, want ...types.Epoch) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := ep.seqInitAcks()
		slices.Sort(got)
		if slices.Equal(got, want) {
			return
		}
		if len(got) > len(want) || time.Now().After(deadline) {
			t.Fatalf("SeqInitAck epochs %v, want %v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSeqInitStaleOnlyWithinItsRegion: a replica of a leaf shard follows
// the leaf's sequencer group and the master's, whose epochs are unrelated.
// A master SeqInit at epoch 2 after a leaf SeqInit at epoch 3 comes from
// the master's new leader and must be acked — otherwise that leader never
// serves. A SeqInit is stale only against its own region: below the last
// epoch accepted from it, or below the epoch of its color's highest
// committed SN.
func TestSeqInitStaleOnlyWithinItsRegion(t *testing.T) {
	r, ep := steppedReplicaIn(t, leafShard(t, 1), nil)
	r.handle(910, proto.SeqInit{Epoch: 3, Region: 1, From: 910})
	awaitSeqInitAcks(t, ep, 3)
	r.handle(900, proto.SeqInit{Epoch: 2, Region: 0, From: 900})
	awaitSeqInitAcks(t, ep, 2, 3)

	syncs := r.Stats().Syncs
	r.handle(910, proto.SeqInit{Epoch: 2, Region: 1, From: 911}) // below the leaf's 3
	if err := r.st.PutBatch(0, types.MakeToken(7, 1), [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := r.commit(0, types.MakeToken(7, 1), types.MakeSN(5, 1)); err != nil {
		t.Fatal(err)
	}
	r.handle(900, proto.SeqInit{Epoch: 4, Region: 0, From: 901}) // below the master's committed epoch 5
	if got := r.Stats().Syncs; got != syncs {
		t.Fatalf("a stale SeqInit started a sync-phase (%d -> %d syncs)", syncs, got)
	}
	r.handle(900, proto.SeqInit{Epoch: 5, Region: 0, From: 901})
	awaitSeqInitAcks(t, ep, 2, 3, 5)
}

// TestSeqInitsOfTwoRegionsInOneSyncPhase: SeqInits from two regions that
// arrive during one sync-phase are both acked when it ends — a second
// region's SeqInit does not replace the first's.
func TestSeqInitsOfTwoRegionsInOneSyncPhase(t *testing.T) {
	r, ep := steppedReplicaIn(t, leafShard(t, 1, 2), nil)
	r.handle(910, proto.SeqInit{Epoch: 3, Region: 1, From: 910}) // replica 1 coordinates
	r.handle(900, proto.SeqInit{Epoch: 2, Region: 0, From: 900})
	var run uint64
	ep.mu.Lock()
	for _, m := range ep.sent {
		if req, ok := m.(proto.SyncRequest); ok {
			run = req.ID
		}
	}
	ep.mu.Unlock()
	if run == 0 || r.Stats().Syncs != 1 {
		t.Fatalf("sync run %d, %d syncs; want one run", run, r.Stats().Syncs)
	}
	r.handle(2, proto.JoinEntries{ID: run, From: 2}) // the pull from 2 is complete
	r.handle(2, proto.SyncDone{ID: run, From: 2})
	awaitSeqInitAcks(t, ep, 2, 3)
}
