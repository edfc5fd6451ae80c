// Package scalog implements the Scalog-style ordering layer that Boki
// adopts (§3.3, §9.1): order requests are batched by an aggregator and the
// log tail is advanced through a Paxos-replicated counter — one consensus
// decision per batch. It answers the same OrderReq/OrderResp wire protocol
// as FlexLog's sequencer tree, over the same transport, which is what makes
// the Figure 4 comparison apples-to-apples.
package scalog

import (
	"runtime"
	"sync"
	"time"

	"flexlog/internal/paxos"
	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// Config parameterizes one Scalog orderer.
type Config struct {
	ID        types.NodeID
	Acceptors []types.NodeID
	// BatchInterval is the aggregation window before a Paxos decision is
	// requested for the pending batch.
	BatchInterval time.Duration
	// UniquePrimary enables the Multi-Paxos optimization (skip Phase 1).
	// Disable when multiple orderers share the acceptors (§3.3 livelock
	// configuration).
	UniquePrimary bool
	// PerRequest disables aggregation entirely: every order request costs
	// one (pipelined) Paxos decision — the "optimized Paxos" baseline of
	// Fig. 4 (right), as opposed to Scalog/Boki's batched counter.
	PerRequest bool
	// PhaseTimeout / MaxAttempts pass through to the proposer.
	PhaseTimeout time.Duration
	MaxAttempts  int
}

type member struct {
	token    types.Token
	n        uint32
	replicas []types.NodeID
	color    types.ColorID
}

// Stats counts orderer activity.
type Stats struct {
	Requests  uint64
	Batches   uint64
	Assigned  uint64
	DupTokens uint64
	Failures  uint64 // batches that failed consensus (livelock bound)
}

// Orderer is one Scalog ordering node: aggregator + Paxos proposer.
type Orderer struct {
	cfg     Config
	counter *paxos.Counter
	ep      transport.Endpoint

	mu      sync.Mutex
	pending []member
	tokens  map[types.Token]types.SN
	stats   Stats

	stopCh  chan struct{}
	stopped sync.WaitGroup
	kick    chan struct{}
}

// New creates an orderer and registers it on the network. The Paxos
// proposer is registered under ID+1.
func New(cfg Config, net *transport.Network) (*Orderer, error) {
	counter, err := paxos.NewCounter(paxos.ProposerConfig{
		ID:           cfg.ID + 1,
		Acceptors:    cfg.Acceptors,
		SkipPhase1:   cfg.UniquePrimary,
		PhaseTimeout: cfg.PhaseTimeout,
		MaxAttempts:  cfg.MaxAttempts,
	}, net)
	if err != nil {
		return nil, err
	}
	o := &Orderer{
		cfg:     cfg,
		counter: counter,
		tokens:  make(map[types.Token]types.SN),
		stopCh:  make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	ep, err := net.Register(cfg.ID, o.handle)
	if err != nil {
		counter.Stop()
		return nil, err
	}
	o.ep = ep
	o.stopped.Add(1)
	go o.commitLoop()
	return o, nil
}

// Stats returns a snapshot of the counters.
func (o *Orderer) Stats() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}

// PaxosStats exposes the underlying proposer counters (preemptions etc.).
func (o *Orderer) PaxosStats() paxos.ProposerStats { return o.counter.Stats() }

// Stop shuts the orderer down.
func (o *Orderer) Stop() {
	select {
	case <-o.stopCh:
		return
	default:
	}
	close(o.stopCh)
	o.stopped.Wait()
	o.counter.Stop()
}

func (o *Orderer) handle(from types.NodeID, msg transport.Message) {
	req, ok := msg.(proto.OrderReq)
	if !ok {
		return
	}
	o.mu.Lock()
	o.stats.Requests++
	if sn, dup := o.tokens[req.Token]; dup {
		o.stats.DupTokens++
		o.mu.Unlock()
		if sn.Valid() {
			o.ep.Broadcast(req.Replicas, proto.OrderResp{Token: req.Token, LastSN: sn, NRecords: req.NRecords, Color: req.Color})
		}
		return
	}
	o.tokens[req.Token] = types.InvalidSN
	if o.cfg.PerRequest {
		o.mu.Unlock()
		// One pipelined Paxos decision per request; run off the delivery
		// goroutine so decisions overlap.
		go o.decideOne(req)
		return
	}
	o.pending = append(o.pending, member{token: req.Token, n: req.NRecords, replicas: req.Replicas, color: req.Color})
	o.mu.Unlock()
	select {
	case o.kick <- struct{}{}:
	default:
	}
}

// decideOne serves one order request with its own Paxos decision.
func (o *Orderer) decideOne(req proto.OrderReq) {
	end, err := o.counter.Next(req.NRecords)
	o.mu.Lock()
	if err != nil {
		o.stats.Failures++
		delete(o.tokens, req.Token)
		o.mu.Unlock()
		return
	}
	o.stats.Batches++
	o.stats.Assigned += uint64(req.NRecords)
	sn := types.SN(end)
	o.tokens[req.Token] = sn
	o.mu.Unlock()
	o.ep.Broadcast(req.Replicas, proto.OrderResp{Token: req.Token, LastSN: sn, NRecords: req.NRecords, Color: req.Color})
}

func (o *Orderer) commitLoop() {
	defer o.stopped.Done()
	for {
		select {
		case <-o.stopCh:
			return
		case <-o.kick:
		}
		if o.cfg.BatchInterval > 0 {
			if o.cfg.BatchInterval >= time.Millisecond {
				time.Sleep(o.cfg.BatchInterval)
			} else {
				start := time.Now()
				for time.Since(start) < o.cfg.BatchInterval {
					runtime.Gosched() // let requests join the window
				}
			}
		}
		o.flush()
	}
}

func (o *Orderer) flush() {
	o.mu.Lock()
	batch := o.pending
	o.pending = nil
	o.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	var total uint32
	for _, m := range batch {
		total += m.n
	}
	// One Paxos decision advances the replicated tail by the batch total
	// (Scalog's per-interval counter commit).
	end, err := o.counter.Next(total)
	if err != nil {
		o.mu.Lock()
		o.stats.Failures++
		// Forget the tokens so retries can re-enter.
		for _, m := range batch {
			delete(o.tokens, m.token)
		}
		o.mu.Unlock()
		return
	}
	o.mu.Lock()
	o.stats.Batches++
	o.stats.Assigned += uint64(total)
	running := end - uint64(total)
	type out struct {
		resp     proto.OrderResp
		replicas []types.NodeID
	}
	outs := make([]out, 0, len(batch))
	for _, m := range batch {
		running += uint64(m.n)
		sn := types.SN(running)
		o.tokens[m.token] = sn
		outs = append(outs, out{
			resp:     proto.OrderResp{Token: m.token, LastSN: sn, NRecords: m.n, Color: m.color},
			replicas: m.replicas,
		})
	}
	o.mu.Unlock()
	for _, ot := range outs {
		o.ep.Broadcast(ot.replicas, ot.resp)
	}
}
