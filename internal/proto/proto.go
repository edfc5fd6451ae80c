// Package proto defines the wire messages of every FlexLog protocol
// (§6.1–§6.4): the client append/read/subscribe/trim requests, the ordering
// layer's order requests and responses (including the aggregated tree
// forms), the heartbeat/election traffic of sequencer fault tolerance
// (§5.2), and the replica sync-phase messages (§6.3).
//
// On the wire every message travels in the hand-rolled binary framing of
// wire.go (zero-alloc encode, length-prefixed, one-byte type tag; see
// DESIGN.md §12).
package proto

import (
	"time"

	"flexlog/internal/types"
)

// ---- Client ↔ replica (Alg. 1 client/replica rounds) ----

// AppendReq is a one-set append (Alg. 1 round 1). Clients send every
// append as an AppendBatchReq; only the benchmark module's ladder and
// tests still send this, and a replica handles it as a one-set batch.
// Tenant identifies the issuing tenant for QoS accounting and admission
// control (0 = default tenant, never throttled).
type AppendReq struct {
	Color   types.ColorID
	Token   types.Token
	Records [][]byte
	Client  types.NodeID
	Tenant  types.TenantID
	// Entry never travels: the decoders lay Records out in it, as in
	// AppendBatchReq.Entry.
	Entry []byte
}

// AppendAck is a replica's round-4 acknowledgement carrying the SN of the
// last record of the batch.
type AppendAck struct {
	Token types.Token
	SN    types.SN
}

// AppendBatchReq is the client's round-1 broadcast to all replicas of a
// shard (Alg. 1), built by the client-side batching layer: several
// callers' appends to the same color, coalesced into one ordering request
// and one data RPC. Each inner set is one caller's records; the
// whole batch is persisted and ordered as a unit, so the sets occupy one
// consecutive SN range in enqueue order and the client can demultiplex
// per-set SNs from the last SN alone. Replicas acknowledge with a plain
// AppendAck (the ack needs only the token and the batch's last SN).
type AppendBatchReq struct {
	Color  types.ColorID
	Token  types.Token
	Sets   [][][]byte
	Client types.NodeID
	Tenant types.TenantID
	// Entry never travels: the frame decoders set it to their one copy of
	// the batch's records, every set in order, laid out as a storage
	// record entry (32 bytes of header room, then
	// [u32 count][u32 len_i][data_i]…), and point Sets into it. A replica
	// persists it as it is (storage.Store.PutEntry). Every message a
	// node receives was decoded, so every received batch has one.
	Entry []byte
}

// NRecords returns the total record count across all sets.
func (m AppendBatchReq) NRecords() int {
	n := 0
	for _, set := range m.Sets {
		n += len(set)
	}
	return n
}

// ReadReq asks one replica of a shard for the record at (Color, SN).
type ReadReq struct {
	ID     uint64 // client-chosen correlation id
	Color  types.ColorID
	SN     types.SN
	Client types.NodeID
	Tenant types.TenantID
}

// ReadStatus qualifies a ⊥ read response (Found=false). The values are
// ordered by precedence: when a client merges responses from several
// replicas, the highest status wins. Status 0 is plain ⊥ — hole, unknown
// SN, or hold timeout.
const (
	// ReadStatusTrimmed: the SN was garbage collected after a trim.
	ReadStatusTrimmed uint8 = iota + 1
	// ReadStatusCkptTruncated: the SN lies at or below the replica's
	// checkpoint recovery floor — gone for good, clients should not retry.
	ReadStatusCkptTruncated
	// ReadStatusEvicted: the record was evicted to the cold tier and the
	// tier could not serve it (transient, e.g. mid-recovery); retryable.
	ReadStatusEvicted
)

// ReadResp carries the record payload, or Found=false for ⊥ (§6.1),
// qualified by Status.
type ReadResp struct {
	ID     uint64
	SN     types.SN
	Data   []byte
	Found  bool
	Status uint8 // ReadStatus*, meaningful when !Found
}

// SubscribeReq asks one replica of a shard for its local view of a color's
// log with SN > From.
type SubscribeReq struct {
	ID     uint64
	Color  types.ColorID
	From   types.SN
	Client types.NodeID
}

// WireRecord is a record as shipped in subscribe responses and catch-up
// rounds.
type WireRecord struct {
	Token types.Token
	SN    types.SN
	Data  []byte
}

// SubscribeResp returns a replica's local (committed) view, sorted by SN.
type SubscribeResp struct {
	ID      uint64
	Color   types.ColorID
	Records []WireRecord
}

// TrimReq asks every replica of every shard of the color to delete records
// with SN <= SN.
type TrimReq struct {
	ID     uint64
	Color  types.ColorID
	SN     types.SN
	Client types.NodeID
}

// TrimPeerAck is the replica-to-replica acknowledgement round of the trim
// protocol (§6.2: "all replicas acknowledge the operation to all replicas").
type TrimPeerAck struct {
	ID    uint64
	Color types.ColorID
	SN    types.SN
	From  types.NodeID
}

// TrimAck is the final [head, tail] answer to the caller.
type TrimAck struct {
	ID    uint64
	Color types.ColorID
	Head  types.SN
	Tail  types.SN
}

// ---- QoS rejection (overload backpressure) ----

// Reject reason codes. The distinction matters to the client: a throttled
// request failed admission control (the tenant exceeded its token-bucket
// rate) and should back off by at least the retry-after hint; an overloaded
// request was shed from a full service-lane queue and should retry with
// normal jittered backoff against (possibly) another replica.
const (
	// RejectOverloaded: the replica's bounded lane queue was full and the
	// request was shed rather than queued.
	RejectOverloaded uint8 = iota
	// RejectThrottled: per-tenant admission control rejected the request.
	RejectThrottled
	// RejectReconfiguring: the replica is being drained (or its shard
	// merged away) by the control plane and no longer accepts appends.
	// Retryable: the client re-resolves the topology and retries against
	// the post-reconfiguration membership.
	RejectReconfiguring
)

// Reject is a replica's typed backpressure response: instead of silently
// growing a queue (or silently dropping), an overloaded or throttling
// replica answers the request with a Reject the client maps onto
// ErrOverloaded / ErrThrottled. Token correlates appends (and carries the
// batch token for AppendBatchReq); ID correlates reads. Exactly one of the
// two is meaningful, disambiguated by IsRead.
type Reject struct {
	Token            types.Token
	ID               uint64
	Color            types.ColorID
	Tenant           types.TenantID
	Code             uint8 // Reject*
	IsRead           bool
	RetryAfterMicros uint64 // server hint; 0 = no hint
}

// RetryAfter returns the server's backoff hint as a duration.
func (m Reject) RetryAfter() time.Duration {
	return time.Duration(m.RetryAfterMicros) * time.Microsecond
}

// ---- Multi-color append (Alg. 2) ----

// MultiAppendEnd is the client's "end" marker broadcast to the broker
// shard's replicas after all staged appends acked.
type MultiAppendEnd struct {
	ID     uint64
	FID    uint32 // whose staged records to replay
	Tokens []types.Token
	Client types.NodeID
}

// MultiAppendAck signals that a broker replica finished replaying the
// staged records into their target colors.
type MultiAppendAck struct {
	ID uint64
}

// ---- Replica ↔ ordering layer (Alg. 1 sequencer rounds) ----

// OrderReq asks the ordering layer for NRecords sequence numbers in Color.
// Replicas carries the shard membership so the leaf sequencer can broadcast
// the response to every replica (Alg. 1 line 35).
type OrderReq struct {
	Color    types.ColorID
	Token    types.Token
	NRecords uint32
	Shard    types.ShardID
	Replicas []types.NodeID
}

// OrderResp delivers the SN of the last record of the batch to all replicas
// of the shard.
type OrderResp struct {
	Token    types.Token
	LastSN   types.SN
	NRecords uint32
	Color    types.ColorID
}

// OrderItem is one coalesced order request (one append batch's token).
type OrderItem struct {
	Token    types.Token
	NRecords uint32
}

// OrderReqBatch carries the order requests a replica accumulated for one
// color while an earlier send was in progress — the replica→leaf edge batches the
// same way the sequencer tree already aggregates upward (§5.2). All items
// share the color and the shard membership.
type OrderReqBatch struct {
	Color    types.ColorID
	Shard    types.ShardID
	Replicas []types.NodeID
	Items    []OrderItem
}

// OrderRespItem is one assignment within an OrderRespBatch.
type OrderRespItem struct {
	Token    types.Token
	LastSN   types.SN
	NRecords uint32
}

// OrderRespBatch delivers the assignments for a whole OrderReqBatch (or
// for the direct members of one shard in an aggregated response) in a
// single message.
type OrderRespBatch struct {
	Color types.ColorID
	Items []OrderRespItem
}

// ---- Sequencer tree internals (§5.2 ordering layer) ----

// AggOrderReq is a merged order request forwarded up the sequencer tree:
// Total sequence numbers are requested for Color on behalf of the child
// sequencer From (§5.2: sub-region sequencers "serve as aggregators").
type AggOrderReq struct {
	Color   types.ColorID
	BatchID uint64
	Total   uint32
	From    types.NodeID
}

// AggOrderResp returns the last SN of the range assigned to the batch.
type AggOrderResp struct {
	BatchID uint64
	LastSN  types.SN
	Color   types.ColorID
}

// ---- Sequencer fault tolerance (§5.2 sequencer replication) ----

// SeqHeartbeat is sent by the active sequencer to its backups.
type SeqHeartbeat struct {
	Epoch types.Epoch
	From  types.NodeID
}

// SeqHeartbeatAck confirms a heartbeat; the leader needs a majority to
// stay active (split-brain avoidance).
type SeqHeartbeatAck struct {
	Epoch types.Epoch
	From  types.NodeID
}

// EpochClaim is a backup's claim to become leader of epoch Epoch.
// Backups grant the claim to the highest-id claimant they have seen.
type EpochClaim struct {
	Epoch types.Epoch
	From  types.NodeID
}

// EpochGrant accepts a claim.
type EpochGrant struct {
	Epoch types.Epoch
	From  types.NodeID
}

// EpochReject refuses a claim, telling the claimant the higher epoch or
// higher-id claimant it lost to. LeaderAlive marks a stickiness
// rejection: the rejector has recent evidence the current leader is
// alive (its own heartbeats, or acks from a live majority), so the claim
// looks like lost heartbeats rather than a dead leader. The claimant
// must abandon WITHOUT adopting Epoch — adopting would make it ignore
// the healthy leader's (lower-epoch) heartbeats and claim forever.
type EpochReject struct {
	Epoch       types.Epoch  // the rejecting node's current epoch
	Claimant    types.NodeID // the claimant the rejector prefers
	LeaderAlive bool         // rejector recently heard a live leader
}

// SeqInit is the new sequencer's initialization request to all replicas of
// its region: replicas must acknowledge (and sync, §6.3) before the new
// epoch starts serving. Region names the sequencer group: every group
// numbers its own epochs, and a replica follows several of them.
type SeqInit struct {
	Epoch  types.Epoch
	Region types.ColorID
	From   types.NodeID
}

// SeqInitAck acknowledges SeqInit.
type SeqInitAck struct {
	Epoch types.Epoch
	From  types.NodeID
}

// ---- Sync-phase (§6.3) ----

// SyncRequest starts a sync-phase: the coordinator asks all shard peers to
// pause and pull from each other in JoinFetch/JoinEntries rounds carrying
// the run's ID.
type SyncRequest struct {
	ID   uint64
	From types.NodeID
}

// SyncDone is the all-to-all barrier message ending the sync-phase: a
// replica may resume only after receiving SyncDone from every peer (§6.3).
type SyncDone struct {
	ID   uint64
	From types.NodeID
}

// ---- Reconfiguration control plane (DESIGN.md §15) ----

// JoinFetch is one round of replica-to-replica catch-up: send committed
// records above Have, per color, and the SN of every listed token the donor
// has committed. A joining replica sends it to its donor in the background
// under live traffic (ID = the join's id), a replica in a sync-phase to
// each shard peer in turn (ID = the sync run's id, §6.3). Serving it never
// pauses the donor. Budget bounds the records per color in one reply —
// rounded up to the end of an append batch, which is never split — so a
// far-behind replica fetches in rounds instead of one giant frame.
type JoinFetch struct {
	ID   uint64
	Have map[types.ColorID]types.SN
	// Tokens are the requester's persisted but unordered batches, at most
	// Budget of them: a batch below Have that a peer ordered is found by
	// its token, never by a frontier.
	Tokens []types.Token
	Budget uint32 // max records per color per reply; 0 = the donor's default
	From   types.NodeID
}

// JoinEntries is the donor's reply to a JoinFetch: the missing committed
// records plus the donor's own committed frontier, from which a joiner
// computes its catch-up lag (the promotion gate), and its trim frontier,
// which the requester adopts. Each color's epoch travels in its SNs. More
// marks a reply truncated by the fetch budget — the requester fetches
// again.
type JoinEntries struct {
	ID       uint64
	Records  map[types.ColorID][]WireRecord
	Frontier map[types.ColorID]types.SN // donor's committed frontier per color
	Trimmed  map[types.ColorID]types.SN // donor's trim frontier per color
	More     bool                       // reply truncated by Budget; fetch again
	From     types.NodeID
}

// TopoRegion is one region of a TopoUpdate snapshot.
type TopoRegion struct {
	Color   types.ColorID
	Parent  types.ColorID
	Leader  types.NodeID
	Backups []types.NodeID
	Members []types.NodeID
	IsRoot  bool
}

// TopoShard is one shard of a TopoUpdate snapshot.
type TopoShard struct {
	ID       types.ShardID
	Leaf     types.ColorID
	Replicas []types.NodeID
}

// TopoUpdate broadcasts a full, versioned topology snapshot after a
// reconfiguration. Receivers apply it through the epoch fence: a snapshot
// whose Version is not strictly newer than the local layout is a stale or
// duplicate broadcast and is dropped (topology.Apply).
type TopoUpdate struct {
	Version uint64
	Regions []TopoRegion
	Shards  []TopoShard
	From    types.NodeID
}

// Control-plane operation codes carried by CtrlReconfig.
const (
	// CtrlOpJoin starts background catch-up on a spare replica: fetch
	// committed records from Donor until the lag reaches zero.
	CtrlOpJoin uint8 = iota + 1
	// CtrlOpPromote promotes a caught-up replica: it runs the sync-phase
	// against its (new) shard peers and enters the serving set.
	CtrlOpPromote
	// CtrlOpDrain drains a replica out of the serving set: new appends get
	// a typed Reject(reconfiguring) while in-flight commits finish.
	CtrlOpDrain
	// CtrlOpStatus queries a node's reconfiguration state (mode, catch-up
	// lag, topology version) without changing anything.
	CtrlOpStatus
)

// CtrlReconfig is a control-plane command to one node: start a catch-up
// (Join, naming the Donor), promote, drain, or report status. Seq
// correlates the CtrlAck.
type CtrlReconfig struct {
	Seq   uint64
	Op    uint8 // CtrlOp*
	Donor types.NodeID
	From  types.NodeID
}

// CtrlAck answers a CtrlReconfig with the node's reconfiguration state:
// its replica mode, remaining catch-up lag in records (join in progress),
// and the topology fencing version it has applied.
type CtrlAck struct {
	Seq     uint64
	Op      uint8
	OK      bool
	Mode    uint8
	Lag     uint64
	Version uint64
	From    types.NodeID
}

// ---- Paxos baseline (§3.3; package paxos) ----

// Ballot is a Paxos ballot number: (round << 32) | proposer, so ballots
// of distinct proposers never tie.
type Ballot uint64

// Round extracts the round half.
func (b Ballot) Round() uint32 { return uint32(uint64(b) >> 32) }

// PaxosValue is the payload agreed on in one Paxos slot: a request for N
// sequence numbers, identified by the request id for response routing.
type PaxosValue struct {
	N     uint32
	ReqID uint64
	From  types.NodeID
}

// Prepare is Phase-1a.
type Prepare struct {
	Ballot Ballot
	Slot   uint64
}

// Promise is Phase-1b. OK=false carries the higher promised ballot.
type Promise struct {
	Ballot         Ballot
	Slot           uint64
	OK             bool
	AcceptedBallot Ballot
	AcceptedValue  PaxosValue
}

// Accept is Phase-2a.
type Accept struct {
	Ballot Ballot
	Slot   uint64
	Value  PaxosValue
}

// Accepted is Phase-2b. OK=false carries the higher promised ballot.
type Accepted struct {
	Ballot Ballot
	Slot   uint64
	OK     bool
}
