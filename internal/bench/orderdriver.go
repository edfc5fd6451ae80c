package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// orderDriver stands in for a storage replica in ordering-layer-only
// experiments (§9.1: "we isolate the ordering layer overheads by executing
// the workloads without writing any data to the underlying storage
// layer"): it issues order requests and receives the order responses.
type orderDriver struct {
	id  types.NodeID
	fid uint32
	ep  transport.Endpoint
	ctr atomic.Uint32

	mu    sync.Mutex
	waits map[types.Token]chan struct{}
}

func newOrderDriver(net *transport.Network, id types.NodeID) (*orderDriver, error) {
	d := &orderDriver{id: id, fid: uint32(id), waits: make(map[types.Token]chan struct{})}
	ep, err := net.Register(id, func(from types.NodeID, msg transport.Message) {
		resp, ok := msg.(proto.OrderResp)
		if !ok {
			return
		}
		d.mu.Lock()
		ch := d.waits[resp.Token]
		delete(d.waits, resp.Token)
		d.mu.Unlock()
		if ch != nil {
			ch <- struct{}{}
		}
	})
	if err != nil {
		return nil, err
	}
	d.ep = ep
	return d, nil
}

// orderTimeout bounds one order round-trip; hitting it fails the run.
const orderTimeout = 30 * time.Second

// request asks the target sequencer for one SN in color and waits for the
// response.
func (d *orderDriver) request(target types.NodeID, color types.ColorID) error {
	token := types.MakeToken(d.fid, d.ctr.Add(1))
	ch := make(chan struct{}, 1)
	d.mu.Lock()
	d.waits[token] = ch
	d.mu.Unlock()
	req := proto.OrderReq{Color: color, Token: token, NRecords: 1, Replicas: []types.NodeID{d.id}}
	if err := d.ep.Send(target, req); err != nil {
		return err
	}
	select {
	case <-ch:
		return nil
	case <-time.After(orderTimeout):
		d.mu.Lock()
		delete(d.waits, token)
		d.mu.Unlock()
		return fmt.Errorf("order request timed out after %v", orderTimeout)
	}
}
