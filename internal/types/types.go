// Package types defines the identifiers shared across FlexLog's layers:
// sequence numbers, client tokens, colors, and log records (§4, §5.2, §6.1).
package types

import "fmt"

// SN is a 64-bit sequence number. Per §5.2 (Safety), the most significant
// 32 bits carry the sequencer epoch and the least significant 32 bits a
// per-epoch counter, so SNs grow monotonically across sequencer failovers.
// Epochs start at 1, therefore 0 never names a valid record and serves as
// the "unassigned" sentinel.
type SN uint64

// InvalidSN marks a record that has not been assigned a sequence number yet.
const InvalidSN SN = 0

// MakeSN composes a sequence number from an epoch and a counter value.
func MakeSN(epoch uint32, counter uint32) SN {
	return SN(uint64(epoch)<<32 | uint64(counter))
}

// Epoch extracts the epoch half of the SN.
func (s SN) Epoch() uint32 { return uint32(uint64(s) >> 32) }

// Counter extracts the per-epoch counter half of the SN.
func (s SN) Counter() uint32 { return uint32(uint64(s)) }

// Valid reports whether the SN names a committed record.
func (s SN) Valid() bool { return s != InvalidSN }

func (s SN) String() string {
	return fmt.Sprintf("sn(e=%d,c=%d)", s.Epoch(), s.Counter())
}

// Token uniquely identifies an append request: the caller's function id in
// the high 32 bits and a per-caller counter in the low 32 (Alg. 1 line 6).
// Replicas and sequencers deduplicate retries by token.
type Token uint64

// MakeToken composes a token from a function id and a request counter.
func MakeToken(fid uint32, counter uint32) Token {
	return Token(uint64(fid)<<32 | uint64(counter))
}

// FID extracts the function id that issued the request.
func (t Token) FID() uint32 { return uint32(uint64(t) >> 32) }

// Counter extracts the per-caller request counter.
func (t Token) Counter() uint32 { return uint32(uint64(t)) }

func (t Token) String() string {
	return fmt.Sprintf("tok(fid=%d,c=%d)", t.FID(), t.Counter())
}

// ColorID names a color (a region of the log, §4). Color 0 is the master
// region at the root of the region tree.
type ColorID uint32

// MasterColor is the root region: appends ordered here are totally ordered
// across the entire log.
const MasterColor ColorID = 0

func (c ColorID) String() string { return fmt.Sprintf("color#%d", c) }

// Record is one log entry.
type Record struct {
	Token Token
	SN    SN // InvalidSN until the ordering layer assigns a position
	Color ColorID
	Data  []byte
}

// Committed reports whether the record has a log position.
func (r Record) Committed() bool { return r.SN.Valid() }

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	out := r
	out.Data = append([]byte(nil), r.Data...)
	return out
}

// TenantID names a tenant — the unit of QoS accounting, admission control,
// and weighted-fair scheduling (§5.1 sketches multi-tenancy as
// colors-per-application; tenants own disjoint color sets). Tenant 0 is the
// default tenant: untenanted traffic, never throttled by admission control
// but still scheduled fairly.
type TenantID uint32

// DefaultTenant is the identity of untenanted traffic.
const DefaultTenant TenantID = 0

func (t TenantID) String() string { return fmt.Sprintf("tenant#%d", t) }

// NodeID identifies a process in the deployment (replica, sequencer, or
// client). IDs are unique across the whole topology.
type NodeID uint32

func (n NodeID) String() string { return fmt.Sprintf("node#%d", n) }

// ShardID identifies a shard (a replica group, §4).
type ShardID uint32

func (s ShardID) String() string { return fmt.Sprintf("shard#%d", s) }

// Epoch numbers sequencer leadership terms (§5.2). A new epoch begins each
// time a sequencer fails over; it forms the high half of every SN issued by
// the new leader.
type Epoch uint32
