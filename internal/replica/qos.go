package replica

import (
	"sync"
	"sync/atomic"
	"time"

	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// This file is the replica half of the multi-tenant QoS layer (DESIGN.md
// §13). Three mechanisms compose:
//
//   - admission control: append ingress charges the tenant's token bucket
//     (Config.Tenants rates); over-rate requests are answered with a typed
//     Reject(throttled) carrying a retry-after hint instead of being
//     processed — the aggressor pays before it can queue.
//   - weighted-fair lanes: both service lanes queue client requests per
//     tenant, drained by DRR in Config.Tenants' weights (transport.LaneQoS;
//     one tenant queue when none is declared), so a tenant that floods
//     past admission still cannot monopolize lane workers. Protocol
//     messages (order responses) skip the tenant queues: never shed, and
//     served first.
//   - typed shedding: a full tenant queue sheds to onShed, which answers
//     the caller with Reject(overloaded) — overload is always an explicit
//     client-visible signal, never silent queue growth.

// overloadRetryAfter is the hint attached to lane-shed rejections: long
// enough for a DRR round to drain, short enough that a recovered lane is
// re-probed quickly.
const overloadRetryAfter = time.Millisecond

// laneTenantOf tells the lanes' client requests, which are bounded and
// shed per tenant, from protocol messages (order responses), which report
// ok=false. A subscribe carries no tenant and queues under the default one.
func laneTenantOf(msg transport.Message) (types.TenantID, bool) {
	switch m := msg.(type) {
	case proto.AppendReq:
		return m.Tenant, true
	case proto.AppendBatchReq:
		return m.Tenant, true
	case proto.ReadReq:
		return m.Tenant, true
	case proto.SubscribeReq:
		return types.DefaultTenant, true
	}
	return types.DefaultTenant, false
}

// onShed answers a shed client request (the only kind a lane sheds) with
// a typed Reject, so the client sees ErrOverloaded instead of a timeout.
func (r *Replica) onShed(from types.NodeID, msg transport.Message, tenant types.TenantID) {
	rej := proto.Reject{
		Tenant:           tenant,
		Code:             proto.RejectOverloaded,
		RetryAfterMicros: uint64(overloadRetryAfter / time.Microsecond),
	}
	var client types.NodeID
	switch m := msg.(type) {
	case proto.AppendReq:
		rej.Token, rej.Color, client = m.Token, m.Color, m.Client
	case proto.AppendBatchReq:
		rej.Token, rej.Color, client = m.Token, m.Color, m.Client
	case proto.ReadReq:
		rej.ID, rej.Color, rej.IsRead, client = m.ID, m.Color, true, m.Client
	case proto.SubscribeReq:
		rej.ID, rej.Color, rej.IsRead, client = m.ID, m.Color, true, m.Client
	}
	if client == 0 {
		client = from
	}
	r.tenantCounters(tenant).shed.Add(1)
	r.ep.Send(client, rej)
}

// admitAppend charges n records against the tenant's token bucket. On
// over-rate it answers with Reject(throttled) + retry-after and reports
// false; the caller drops the request unprocessed.
func (r *Replica) admitAppend(from types.NodeID, tenant types.TenantID, token types.Token, color types.ColorID, client types.NodeID, n int) bool {
	ok, wait := r.admit.Admit(tenant, n, time.Now())
	if ok {
		return true
	}
	if client == 0 {
		client = from
	}
	r.tenantCounters(tenant).throttled.Add(1)
	r.ep.Send(client, proto.Reject{
		Token:            token,
		Color:            color,
		Tenant:           tenant,
		Code:             proto.RejectThrottled,
		RetryAfterMicros: uint64(wait / time.Microsecond),
	})
	return false
}

// ---- Per-tenant counters ----

// TenantStats is one tenant's replica-side QoS accounting.
type TenantStats struct {
	Tenant    types.TenantID
	Appends   uint64 // admitted append requests
	Records   uint64 // records those appends carried
	Reads     uint64 // read requests served
	Throttled uint64 // appends rejected by admission control
	Shed      uint64 // requests shed from full lane queues
}

// tenantCounters is the live atomic form of TenantStats.
type tenantCounters struct {
	appends   atomic.Uint64
	records   atomic.Uint64
	reads     atomic.Uint64
	throttled atomic.Uint64
	shed      atomic.Uint64
}

func (c *tenantCounters) appendObserved(records uint64) {
	c.appends.Add(1)
	c.records.Add(records)
}

// tenantRegistry lazily materializes counters per tenant id. Reads are a
// lock-free sync.Map hit; the write path only runs the first time a
// tenant is seen.
type tenantRegistry struct {
	m sync.Map // types.TenantID -> *tenantCounters
}

func (t *tenantRegistry) get(id types.TenantID) *tenantCounters {
	if v, ok := t.m.Load(id); ok {
		return v.(*tenantCounters)
	}
	v, _ := t.m.LoadOrStore(id, new(tenantCounters))
	return v.(*tenantCounters)
}

// tenantCounters returns the live counters for one tenant.
func (r *Replica) tenantCounters(id types.TenantID) *tenantCounters {
	return r.tenants.get(id)
}

// TenantStats snapshots every tenant the replica has seen, sorted by id.
func (r *Replica) TenantStats() []TenantStats {
	var out []TenantStats
	r.tenants.m.Range(func(k, v any) bool {
		c := v.(*tenantCounters)
		out = append(out, TenantStats{
			Tenant:    k.(types.TenantID),
			Appends:   c.appends.Load(),
			Records:   c.records.Load(),
			Reads:     c.reads.Load(),
			Throttled: c.throttled.Load(),
			Shed:      c.shed.Load(),
		})
		return true
	})
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Tenant < out[j-1].Tenant; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
