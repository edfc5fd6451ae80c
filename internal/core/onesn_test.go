package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// These tests drive ROADMAP item 1's schedules — one token, two SNs after
// a leader kill — through the in-process network's per-link faults instead
// of luck, and check what a sync-phase must leave behind: every token at
// one SN on every replica of the shard, and every acknowledged SN readable
// from every one of them. They speak only surfaces older than the fix.

// ackedAppend is one append's outcome.
type ackedAppend struct {
	color types.ColorID
	data  string
	sn    types.SN
	err   error
}

// goAppend runs one single-record append in the background.
func goAppend(c *Client, color types.ColorID, data string) <-chan ackedAppend {
	out := make(chan ackedAppend, 1)
	go func() {
		sn, err := c.Append([][]byte{[]byte(data)}, color)
		out <- ackedAppend{color, data, sn, err}
	}()
	return out
}

// awaitAppend waits for a background append to be acknowledged.
func awaitAppend(t *testing.T, ch <-chan ackedAppend) ackedAppend {
	t.Helper()
	select {
	case a := <-ch:
		if a.err != nil {
			t.Fatalf("append %q: %v", a.data, a.err)
		}
		return a
	case <-time.After(20 * time.Second):
		t.Fatal("append never completed")
	}
	return ackedAppend{}
}

// oneSNPerToken fails unless every token any replica holds sits at the
// same SN on every replica (a batch's SN is its last record's).
func oneSNPerToken(t *testing.T, reps []*replica.Replica, colors ...types.ColorID) {
	t.Helper()
	logs := make([]map[types.Token]types.SN, len(reps))
	for i, r := range reps {
		logs[i] = make(map[types.Token]types.SN)
		for _, c := range colors {
			recs, err := r.Store().Scan(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				logs[i][rec.Token] = max(logs[i][rec.Token], rec.SN)
			}
		}
	}
	for i, log := range logs {
		for token, sn := range log {
			for j := range logs {
				if got := logs[j][token]; got != sn {
					t.Errorf("token %v is at %v on replica %d and at %v on replica %d", token, sn, reps[i].ID(), got, reps[j].ID())
				}
			}
		}
	}
}

// readsBackEverywhere fails unless every replica serves each append's
// payload at the SN it was acknowledged with.
func readsBackEverywhere(t *testing.T, reps []*replica.Replica, acked ...ackedAppend) {
	t.Helper()
	for _, a := range acked {
		for _, r := range reps {
			if got, err := r.Store().Get(a.color, a.sn); err != nil || !bytes.Equal(got, []byte(a.data)) {
				t.Errorf("append %q acked at %v: replica %d holds %q, %v", a.data, a.sn, r.ID(), got, err)
			}
		}
	}
}

// TestLostOrderRespThenLeaderKill: replica b loses token T's OrderResp, and
// every order request it sends, then commits the next append, so its
// frontier passes T's SN; then the leader dies. A sync-phase that fetches
// above each replica's own frontier never sends b the batch, b asks the
// stateless new leader for T, and the append is acked at a second SN the
// other replicas never hold.
func TestLostOrderRespThenLeaderKill(t *testing.T) {
	cl, c := newSimple(t, 1)
	reps := cl.Replicas(1)
	a, b := reps[0], reps[1]
	leader := cl.LeaderOf(types.MasterColor)
	net := cl.Network()
	net.SetLinkFaults(b.ID(), leader.ID(), transport.FaultModel{DropProb: 1})
	net.SetLinkFaults(leader.ID(), b.ID(), transport.FaultModel{DropNext: 1})

	lost := goAppend(c, types.MasterColor, "lost")
	eventually(t, "the lost append to commit on the other replicas", func() bool {
		return a.Store().MaxSN(types.MasterColor).Valid()
	})
	c2, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	next := awaitAppend(t, goAppend(c2, types.MasterColor, "next"))
	if got := b.Store().MaxSN(types.MasterColor); got != next.sn {
		t.Fatalf("replica %d frontier %v, want the next append's %v", b.ID(), got, next.sn)
	}

	leader.Crash()
	net.Isolate(leader.ID())
	net.ClearFaults()
	first := awaitAppend(t, lost)
	oneSNPerToken(t, reps, types.MasterColor)
	readsBackEverywhere(t, reps, first, next)
}

// TestSplitFrontiersThenLeafLeaderKill: a shard under leaf region 1 holds
// colors 0 and 1. Replica a alone sees a color-0 append, and it alone misses
// a color-1 append's OrderResp (its order requests are lost too), so the
// frontiers split: a leads color 0, its peers lead color 1. Then the leaf
// leader dies. Electing the replica with the largest sum of frontiers picks
// a, whose color-1 log lacks the batch: its peers copy the hole, a asks the
// new leaf leader for the batch and the append is acked at a second SN.
func TestSplitFrontiersThenLeafLeaderKill(t *testing.T) {
	const leaf types.ColorID = 1
	cl, err := TreeCluster(TestClusterConfig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	reps := cl.Replicas(cl.Topology().ShardsInRegion(leaf)[0].ID)
	a := reps[0]
	clients := make([]*Client, 3)
	for i := range clients {
		if clients[i], err = cl.NewClient(); err != nil {
			t.Fatal(err)
		}
	}
	var acked []ackedAppend
	for _, data := range []string{"seed-1", "seed-2"} {
		acked = append(acked, awaitAppend(t, goAppend(clients[0], leaf, data)))
	}

	net := cl.Network()
	for _, r := range reps[1:] {
		net.SetLinkFaults(clients[1].ID(), r.ID(), transport.FaultModel{DropProb: 1})
	}
	ahead := goAppend(clients[1], types.MasterColor, "color-0")
	eventually(t, "replica a to commit the color-0 append", func() bool {
		return a.Store().MaxSN(types.MasterColor).Valid()
	})

	leafLeader := cl.LeaderOf(leaf)
	net.SetLinkFaults(a.ID(), leafLeader.ID(), transport.FaultModel{DropProb: 1})
	net.SetLinkFaults(leafLeader.ID(), a.ID(), transport.FaultModel{DropNext: 1})
	behind := goAppend(clients[2], leaf, "color-1")
	eventually(t, "a's peers to commit the color-1 append", func() bool {
		for _, r := range reps[1:] {
			if r.Store().MaxSN(leaf) <= acked[1].sn {
				return false
			}
		}
		return true
	})

	// The color-0 append reaches a's peers only once the new leaf leader
	// serves, i.e. after the sync-phase: before it, a retry would hand them
	// the batch and with it the lead in color 0.
	leafLeader.Crash()
	net.Isolate(leafLeader.ID())
	eventually(t, "a new leaf leader to serve", func() bool {
		s := cl.LeaderOf(leaf)
		return s != nil && s != leafLeader && s.Serving()
	})
	net.ClearFaults()
	acked = append(acked, awaitAppend(t, ahead), awaitAppend(t, behind))
	oneSNPerToken(t, reps, types.MasterColor, leaf)
	readsBackEverywhere(t, reps, acked...)
}

// TestAppendAckedAtTwoSNsFails: two replicas acknowledge one token at two
// different SNs. Whichever ack lands last must not win: the append fails
// with ErrSNConflict, and the client counts it.
func TestAppendAckedAtTwoSNsFails(t *testing.T) {
	topo := topology.New()
	if err := topo.AddRegion(types.MasterColor, types.MasterColor, 900, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddShard(1, types.MasterColor, []types.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(transport.ZeroLink())
	t.Cleanup(net.Shutdown)
	for _, id := range []types.NodeID{1, 2} {
		var ep transport.Endpoint
		ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
			if m, ok := msg.(proto.AppendBatchReq); ok {
				ep.Send(from, proto.AppendAck{Token: m.Token, SN: types.MakeSN(1, uint32(10*id))})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewClient(ClientConfig{FID: 1, ID: 500, Topo: topo, Timeout: 5 * time.Second}, net)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if sn, err := c.Append([][]byte{[]byte("x")}, types.MasterColor); !errors.Is(err, ErrSNConflict) {
		t.Errorf("append = %v, %v; want ErrSNConflict", sn, err)
	}
	if n := c.Metrics().SNConflicts.Count(); n != 1 {
		t.Errorf("SNConflicts = %d, want 1", n)
	}
}
