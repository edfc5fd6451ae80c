// The body layout of every message, stated once: each wire method walks
// the message's fields in wire order through a codec, which either
// appends them or reads them back (the bodyCodecs rows and FrameDecoder).
// See wire.go for the encoding rules. A new field is one line here, plus
// a bump of the message's golden bytes.
package proto

func (m *AppendReq) wire(c *codec) {
	c.color(&m.Color)
	c.token(&m.Token)
	c.byteSlices(&m.Records)
	c.node(&m.Client)
	c.tenant(&m.Tenant)
}

func (m *AppendBatchReq) wire(c *codec) {
	c.color(&m.Color)
	c.token(&m.Token)
	list(c, &m.Sets, 1)
	for i := range m.Sets {
		c.byteSlices(&m.Sets[i])
	}
	c.node(&m.Client)
	c.tenant(&m.Tenant)
}

func (m *AppendAck) wire(c *codec) {
	c.token(&m.Token)
	c.sn(&m.SN)
}

func (m *ReadReq) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.sn(&m.SN)
	c.node(&m.Client)
	c.tenant(&m.Tenant)
}

func (m *ReadResp) wire(c *codec) {
	c.uvarint(&m.ID)
	c.sn(&m.SN)
	c.bytes(&m.Data)
	c.bool(&m.Found)
	c.u8(&m.Status)
}

func (m *SubscribeReq) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.sn(&m.From)
	c.node(&m.Client)
}

func (m *SubscribeResp) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.records(&m.Records)
}

func (m *TrimReq) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.sn(&m.SN)
	c.node(&m.Client)
}

func (m *TrimPeerAck) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.sn(&m.SN)
	c.node(&m.From)
}

func (m *TrimAck) wire(c *codec) {
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.sn(&m.Head)
	c.sn(&m.Tail)
}

func (m *MultiAppendEnd) wire(c *codec) {
	c.uvarint(&m.ID)
	c.u32(&m.FID)
	c.tokens(&m.Tokens)
	c.node(&m.Client)
}

func (m *MultiAppendAck) wire(c *codec) {
	c.uvarint(&m.ID)
}

func (m *OrderReq) wire(c *codec) {
	c.color(&m.Color)
	c.token(&m.Token)
	c.u32(&m.NRecords)
	c.shard(&m.Shard)
	c.nodes(&m.Replicas)
}

func (m *OrderResp) wire(c *codec) {
	c.token(&m.Token)
	c.sn(&m.LastSN)
	c.u32(&m.NRecords)
	c.color(&m.Color)
}

func (m *OrderReqBatch) wire(c *codec) {
	c.color(&m.Color)
	c.shard(&m.Shard)
	c.nodes(&m.Replicas)
	list(c, &m.Items, 2)
	for i := range m.Items {
		it := &m.Items[i]
		c.token(&it.Token)
		c.u32(&it.NRecords)
	}
}

func (m *OrderRespBatch) wire(c *codec) {
	c.color(&m.Color)
	list(c, &m.Items, 3)
	for i := range m.Items {
		it := &m.Items[i]
		c.token(&it.Token)
		c.sn(&it.LastSN)
		c.u32(&it.NRecords)
	}
}

func (m *AggOrderReq) wire(c *codec) {
	c.color(&m.Color)
	c.uvarint(&m.BatchID)
	c.u32(&m.Total)
	c.node(&m.From)
}

func (m *AggOrderResp) wire(c *codec) {
	c.uvarint(&m.BatchID)
	c.sn(&m.LastSN)
	c.color(&m.Color)
}

func (m *SeqHeartbeat) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.From)
}

func (m *SeqHeartbeatAck) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.From)
}

func (m *EpochClaim) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.From)
}

func (m *EpochGrant) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.From)
}

func (m *EpochReject) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.Claimant)
	c.bool(&m.LeaderAlive)
}

func (m *SeqInit) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.color(&m.Region)
	c.node(&m.From)
}

func (m *SeqInitAck) wire(c *codec) {
	c.epoch(&m.Epoch)
	c.node(&m.From)
}

func (m *SyncRequest) wire(c *codec) {
	c.uvarint(&m.ID)
	c.node(&m.From)
}

func (m *SyncDone) wire(c *codec) {
	c.uvarint(&m.ID)
	c.node(&m.From)
}

func (m *Reject) wire(c *codec) {
	c.token(&m.Token)
	c.uvarint(&m.ID)
	c.color(&m.Color)
	c.tenant(&m.Tenant)
	c.u8(&m.Code)
	c.bool(&m.IsRead)
	c.uvarint(&m.RetryAfterMicros)
}

func (m *JoinFetch) wire(c *codec) {
	c.uvarint(&m.ID)
	c.snMap(&m.Have)
	c.tokens(&m.Tokens)
	c.u32(&m.Budget)
	c.node(&m.From)
}

func (m *JoinEntries) wire(c *codec) {
	c.uvarint(&m.ID)
	c.recordsMap(&m.Records)
	c.snMap(&m.Frontier)
	c.snMap(&m.Trimmed)
	c.bool(&m.More)
	c.node(&m.From)
}

func (m *TopoUpdate) wire(c *codec) {
	c.uvarint(&m.Version)
	list(c, &m.Regions, 6)
	for i := range m.Regions {
		rg := &m.Regions[i]
		c.color(&rg.Color)
		c.color(&rg.Parent)
		c.node(&rg.Leader)
		c.nodes(&rg.Backups)
		c.nodes(&rg.Members)
		c.bool(&rg.IsRoot)
	}
	list(c, &m.Shards, 3)
	for i := range m.Shards {
		sh := &m.Shards[i]
		c.shard(&sh.ID)
		c.color(&sh.Leaf)
		c.nodes(&sh.Replicas)
	}
	c.node(&m.From)
}

func (m *CtrlReconfig) wire(c *codec) {
	c.uvarint(&m.Seq)
	c.u8(&m.Op)
	c.node(&m.Donor)
	c.node(&m.From)
}

func (m *CtrlAck) wire(c *codec) {
	c.uvarint(&m.Seq)
	c.u8(&m.Op)
	c.bool(&m.OK)
	c.u8(&m.Mode)
	c.uvarint(&m.Lag)
	c.uvarint(&m.Version)
	c.node(&m.From)
}
