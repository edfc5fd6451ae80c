// Per-message AppendTo/Decode marshallers of the binary wire codec (see
// wire.go for the format rules). Fields are encoded in struct order.
// AppendTo uses value receivers so both a boxed value and a pointer
// satisfy the codec's wireMessage interface; Decode uses pointer
// receivers, aliases []byte fields into the input buffer, reuses the
// receiver's slice/map capacity, and requires the body to be consumed
// exactly.
package proto

import "flexlog/internal/types"

// AppendTo appends the message body to b. See wire.go.
func (m AppendReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Token))
	b = appendByteSlices(b, m.Records)
	b = appendUvarint(b, uint64(m.Client))
	b = appendUvarint(b, uint64(m.Tenant))
	return b
}

// Decode parses a message body, aliasing []byte fields into b.
func (m *AppendReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	m.Token = types.Token(r.uvarint())
	m.Records = readByteSlices(&r, m.Records)
	m.Client = types.NodeID(r.u32())
	m.Tenant = types.TenantID(r.u32())
	return r.done()
}

func (m AppendReq) wireTag() byte { return TagAppendReq }

// AppendTo appends the message body to b. See wire.go.
func (m AppendBatchReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Token))
	b = appendUvarint(b, uint64(len(m.Sets)))
	for _, set := range m.Sets {
		b = appendByteSlices(b, set)
	}
	b = appendUvarint(b, uint64(m.Client))
	b = appendUvarint(b, uint64(m.Tenant))
	return b
}

// Decode parses a message body, aliasing []byte fields into b.
func (m *AppendBatchReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	m.Token = types.Token(r.uvarint())
	m.Sets = readByteSliceSets(&r, m.Sets)
	m.Client = types.NodeID(r.u32())
	m.Tenant = types.TenantID(r.u32())
	return r.done()
}

func (m AppendBatchReq) wireTag() byte { return TagAppendBatchReq }

// AppendTo appends the message body to b. See wire.go.
func (m AppendAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Token))
	b = appendUvarint(b, uint64(m.SN))
	return b
}

// Decode parses a message body.
func (m *AppendAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Token = types.Token(r.uvarint())
	m.SN = types.SN(r.uvarint())
	return r.done()
}

func (m AppendAck) wireTag() byte { return TagAppendAck }

// AppendTo appends the message body to b. See wire.go.
func (m ReadReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.SN))
	b = appendUvarint(b, uint64(m.Client))
	b = appendUvarint(b, uint64(m.Tenant))
	return b
}

// Decode parses a message body.
func (m *ReadReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.SN = types.SN(r.uvarint())
	m.Client = types.NodeID(r.u32())
	m.Tenant = types.TenantID(r.u32())
	return r.done()
}

func (m ReadReq) wireTag() byte { return TagReadReq }

// AppendTo appends the message body to b. See wire.go.
func (m ReadResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.SN))
	b = appendBytes(b, m.Data)
	b = appendBool(b, m.Found)
	b = append(b, m.Status)
	return b
}

// Decode parses a message body, aliasing Data into b.
func (m *ReadResp) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.SN = types.SN(r.uvarint())
	m.Data = r.bytes()
	m.Found = r.bool()
	m.Status = r.u8()
	return r.done()
}

func (m ReadResp) wireTag() byte { return TagReadResp }

// AppendTo appends the message body to b. See wire.go.
func (m SubscribeReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.From))
	b = appendUvarint(b, uint64(m.Client))
	return b
}

// Decode parses a message body.
func (m *SubscribeReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.From = types.SN(r.uvarint())
	m.Client = types.NodeID(r.u32())
	return r.done()
}

func (m SubscribeReq) wireTag() byte { return TagSubscribeReq }

// AppendTo appends the message body to b. See wire.go.
func (m SubscribeResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendWireRecords(b, m.Records)
	return b
}

// Decode parses a message body, aliasing record payloads into b.
func (m *SubscribeResp) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.Records = readWireRecords(&r, m.Records)
	return r.done()
}

func (m SubscribeResp) wireTag() byte { return TagSubscribeResp }

// AppendTo appends the message body to b. See wire.go.
func (m TrimReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.SN))
	b = appendUvarint(b, uint64(m.Client))
	return b
}

// Decode parses a message body.
func (m *TrimReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.SN = types.SN(r.uvarint())
	m.Client = types.NodeID(r.u32())
	return r.done()
}

func (m TrimReq) wireTag() byte { return TagTrimReq }

// AppendTo appends the message body to b. See wire.go.
func (m TrimPeerAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.SN))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *TrimPeerAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.SN = types.SN(r.uvarint())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m TrimPeerAck) wireTag() byte { return TagTrimPeerAck }

// AppendTo appends the message body to b. See wire.go.
func (m TrimAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Head))
	b = appendUvarint(b, uint64(m.Tail))
	return b
}

// Decode parses a message body.
func (m *TrimAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.Head = types.SN(r.uvarint())
	m.Tail = types.SN(r.uvarint())
	return r.done()
}

func (m TrimAck) wireTag() byte { return TagTrimAck }

// AppendTo appends the message body to b. See wire.go.
func (m MultiAppendEnd) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.FID))
	b = appendTokens(b, m.Tokens)
	b = appendUvarint(b, uint64(m.Client))
	return b
}

// Decode parses a message body.
func (m *MultiAppendEnd) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.FID = r.u32()
	m.Tokens = readTokens(&r, m.Tokens)
	m.Client = types.NodeID(r.u32())
	return r.done()
}

func (m MultiAppendEnd) wireTag() byte { return TagMultiAppendEnd }

// AppendTo appends the message body to b. See wire.go.
func (m MultiAppendAck) AppendTo(b []byte) []byte {
	return appendUvarint(b, m.ID)
}

// Decode parses a message body.
func (m *MultiAppendAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	return r.done()
}

func (m MultiAppendAck) wireTag() byte { return TagMultiAppendAck }

// AppendTo appends the message body to b. See wire.go.
func (m OrderReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Token))
	b = appendUvarint(b, uint64(m.NRecords))
	b = appendUvarint(b, uint64(m.Shard))
	b = appendNodeIDs(b, m.Replicas)
	return b
}

// Decode parses a message body, reusing the Replicas capacity.
func (m *OrderReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	m.Token = types.Token(r.uvarint())
	m.NRecords = r.u32()
	m.Shard = types.ShardID(r.u32())
	m.Replicas = readNodeIDs(&r, m.Replicas)
	return r.done()
}

func (m OrderReq) wireTag() byte { return TagOrderReq }

// AppendTo appends the message body to b. See wire.go.
func (m OrderResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Token))
	b = appendUvarint(b, uint64(m.LastSN))
	b = appendUvarint(b, uint64(m.NRecords))
	b = appendUvarint(b, uint64(m.Color))
	return b
}

// Decode parses a message body.
func (m *OrderResp) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Token = types.Token(r.uvarint())
	m.LastSN = types.SN(r.uvarint())
	m.NRecords = r.u32()
	m.Color = types.ColorID(r.u32())
	return r.done()
}

func (m OrderResp) wireTag() byte { return TagOrderResp }

// AppendTo appends the message body to b. See wire.go.
func (m OrderReqBatch) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Shard))
	b = appendNodeIDs(b, m.Replicas)
	b = appendUvarint(b, uint64(len(m.Items)))
	for _, it := range m.Items {
		b = appendUvarint(b, uint64(it.Token))
		b = appendUvarint(b, uint64(it.NRecords))
	}
	return b
}

// Decode parses a message body, reusing slice capacities.
func (m *OrderReqBatch) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	m.Shard = types.ShardID(r.u32())
	m.Replicas = readNodeIDs(&r, m.Replicas)
	n := r.count(2)
	m.Items = m.Items[:0]
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, OrderItem{
			Token:    types.Token(r.uvarint()),
			NRecords: r.u32(),
		})
	}
	return r.done()
}

func (m OrderReqBatch) wireTag() byte { return TagOrderReqBatch }

// AppendTo appends the message body to b. See wire.go.
func (m OrderRespBatch) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(len(m.Items)))
	for _, it := range m.Items {
		b = appendUvarint(b, uint64(it.Token))
		b = appendUvarint(b, uint64(it.LastSN))
		b = appendUvarint(b, uint64(it.NRecords))
	}
	return b
}

// Decode parses a message body, reusing the Items capacity.
func (m *OrderRespBatch) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	n := r.count(3)
	m.Items = m.Items[:0]
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, OrderRespItem{
			Token:    types.Token(r.uvarint()),
			LastSN:   types.SN(r.uvarint()),
			NRecords: r.u32(),
		})
	}
	return r.done()
}

func (m OrderRespBatch) wireTag() byte { return TagOrderRespBatch }

// AppendTo appends the message body to b. See wire.go.
func (m AggOrderReq) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, m.BatchID)
	b = appendUvarint(b, uint64(m.Total))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *AggOrderReq) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Color = types.ColorID(r.u32())
	m.BatchID = r.uvarint()
	m.Total = r.u32()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m AggOrderReq) wireTag() byte { return TagAggOrderReq }

// AppendTo appends the message body to b. See wire.go.
func (m AggOrderResp) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.BatchID)
	b = appendUvarint(b, uint64(m.LastSN))
	b = appendUvarint(b, uint64(m.Color))
	return b
}

// Decode parses a message body.
func (m *AggOrderResp) Decode(b []byte) error {
	r := wireReader{b: b}
	m.BatchID = r.uvarint()
	m.LastSN = types.SN(r.uvarint())
	m.Color = types.ColorID(r.u32())
	return r.done()
}

func (m AggOrderResp) wireTag() byte { return TagAggOrderResp }

// AppendTo appends the message body to b. See wire.go.
func (m SeqHeartbeat) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SeqHeartbeat) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SeqHeartbeat) wireTag() byte { return TagSeqHeartbeat }

// AppendTo appends the message body to b. See wire.go.
func (m SeqHeartbeatAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SeqHeartbeatAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SeqHeartbeatAck) wireTag() byte { return TagSeqHeartbeatAck }

// AppendTo appends the message body to b. See wire.go.
func (m EpochClaim) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *EpochClaim) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m EpochClaim) wireTag() byte { return TagEpochClaim }

// AppendTo appends the message body to b. See wire.go.
func (m EpochGrant) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *EpochGrant) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m EpochGrant) wireTag() byte { return TagEpochGrant }

// AppendTo appends the message body to b. See wire.go.
func (m EpochReject) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.Claimant))
	b = appendBool(b, m.LeaderAlive)
	return b
}

// Decode parses a message body.
func (m *EpochReject) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.Claimant = types.NodeID(r.u32())
	m.LeaderAlive = r.bool()
	return r.done()
}

func (m EpochReject) wireTag() byte { return TagEpochReject }

// AppendTo appends the message body to b. See wire.go.
func (m SeqInit) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.Region))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SeqInit) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.Region = types.ColorID(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SeqInit) wireTag() byte { return TagSeqInit }

// AppendTo appends the message body to b. See wire.go.
func (m SeqInitAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Epoch))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SeqInitAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Epoch = types.Epoch(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SeqInitAck) wireTag() byte { return TagSeqInitAck }

// AppendTo appends the message body to b. See wire.go.
func (m SyncRequest) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SyncRequest) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SyncRequest) wireTag() byte { return TagSyncRequest }

// AppendTo appends the message body to b. See wire.go.
func (m Reject) AppendTo(b []byte) []byte {
	b = appendUvarint(b, uint64(m.Token))
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.Color))
	b = appendUvarint(b, uint64(m.Tenant))
	b = append(b, m.Code)
	b = appendBool(b, m.IsRead)
	b = appendUvarint(b, m.RetryAfterMicros)
	return b
}

// Decode parses a message body.
func (m *Reject) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Token = types.Token(r.uvarint())
	m.ID = r.uvarint()
	m.Color = types.ColorID(r.u32())
	m.Tenant = types.TenantID(r.u32())
	m.Code = r.u8()
	m.IsRead = r.bool()
	m.RetryAfterMicros = r.uvarint()
	return r.done()
}

func (m Reject) wireTag() byte { return TagReject }

// AppendTo appends the message body to b. See wire.go.
func (m JoinFetch) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendSNMap(b, m.Have)
	b = appendTokens(b, m.Tokens)
	b = appendUvarint(b, uint64(m.Budget))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body, reusing the map and slice storage.
func (m *JoinFetch) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Have = readSNMap(&r, m.Have)
	m.Tokens = readTokens(&r, m.Tokens)
	m.Budget = r.u32()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m JoinFetch) wireTag() byte { return TagJoinFetch }

// AppendTo appends the message body to b. See wire.go.
func (m JoinEntries) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendRecordsMap(b, m.Records)
	b = appendSNMap(b, m.Frontier)
	b = appendSNMap(b, m.Trimmed)
	b = appendBool(b, m.More)
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body, aliasing record payloads into b.
func (m *JoinEntries) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.Records = readRecordsMap(&r, m.Records)
	m.Frontier = readSNMap(&r, m.Frontier)
	m.Trimmed = readSNMap(&r, m.Trimmed)
	m.More = r.bool()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m JoinEntries) wireTag() byte { return TagJoinEntries }

// AppendTo appends the message body to b. See wire.go.
func (m TopoUpdate) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Version)
	b = appendUvarint(b, uint64(len(m.Regions)))
	for _, rg := range m.Regions {
		b = appendUvarint(b, uint64(rg.Color))
		b = appendUvarint(b, uint64(rg.Parent))
		b = appendUvarint(b, uint64(rg.Leader))
		b = appendNodeIDs(b, rg.Backups)
		b = appendNodeIDs(b, rg.Members)
		b = appendBool(b, rg.IsRoot)
	}
	b = appendUvarint(b, uint64(len(m.Shards)))
	for _, sh := range m.Shards {
		b = appendUvarint(b, uint64(sh.ID))
		b = appendUvarint(b, uint64(sh.Leaf))
		b = appendNodeIDs(b, sh.Replicas)
	}
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body, reusing the slice storage.
func (m *TopoUpdate) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Version = r.uvarint()
	nr := r.count(6)
	m.Regions = m.Regions[:0]
	for i := 0; i < nr; i++ {
		var rg TopoRegion
		rg.Color = types.ColorID(r.u32())
		rg.Parent = types.ColorID(r.u32())
		rg.Leader = types.NodeID(r.u32())
		rg.Backups = readNodeIDs(&r, nil)
		rg.Members = readNodeIDs(&r, nil)
		rg.IsRoot = r.bool()
		m.Regions = append(m.Regions, rg)
	}
	ns := r.count(3)
	m.Shards = m.Shards[:0]
	for i := 0; i < ns; i++ {
		var sh TopoShard
		sh.ID = types.ShardID(r.u32())
		sh.Leaf = types.ColorID(r.u32())
		sh.Replicas = readNodeIDs(&r, nil)
		m.Shards = append(m.Shards, sh)
	}
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m TopoUpdate) wireTag() byte { return TagTopoUpdate }

// AppendTo appends the message body to b. See wire.go.
func (m CtrlReconfig) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	b = append(b, m.Op)
	b = appendUvarint(b, uint64(m.Donor))
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *CtrlReconfig) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Seq = r.uvarint()
	m.Op = r.u8()
	m.Donor = types.NodeID(r.u32())
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m CtrlReconfig) wireTag() byte { return TagCtrlReconfig }

// AppendTo appends the message body to b. See wire.go.
func (m CtrlAck) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.Seq)
	b = append(b, m.Op)
	b = appendBool(b, m.OK)
	b = append(b, m.Mode)
	b = appendUvarint(b, m.Lag)
	b = appendUvarint(b, m.Version)
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *CtrlAck) Decode(b []byte) error {
	r := wireReader{b: b}
	m.Seq = r.uvarint()
	m.Op = r.u8()
	m.OK = r.bool()
	m.Mode = r.u8()
	m.Lag = r.uvarint()
	m.Version = r.uvarint()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m CtrlAck) wireTag() byte { return TagCtrlAck }

// AppendTo appends the message body to b. See wire.go.
func (m SyncDone) AppendTo(b []byte) []byte {
	b = appendUvarint(b, m.ID)
	b = appendUvarint(b, uint64(m.From))
	return b
}

// Decode parses a message body.
func (m *SyncDone) Decode(b []byte) error {
	r := wireReader{b: b}
	m.ID = r.uvarint()
	m.From = types.NodeID(r.u32())
	return r.done()
}

func (m SyncDone) wireTag() byte { return TagSyncDone }
