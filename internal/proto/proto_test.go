package proto

import (
	"reflect"
	"testing"

	"flexlog/internal/types"
)

// everyMessage is one populated instance of each wire message.
func everyMessage() []interface{} {
	return []interface{}{
		AppendReq{Color: 1, Token: types.MakeToken(2, 3), Records: [][]byte{[]byte("a"), {}}, Client: 4},
		AppendBatchReq{Color: 1, Token: types.MakeToken(2, 4), Sets: [][][]byte{{[]byte("a")}, {[]byte("b"), []byte("c")}}, Client: 4},
		AppendAck{Token: types.MakeToken(2, 3), SN: types.MakeSN(1, 9)},
		ReadReq{ID: 1, Color: 2, SN: types.MakeSN(1, 3), Client: 4},
		ReadResp{ID: 1, SN: types.MakeSN(1, 3), Data: []byte("x"), Found: true},
		SubscribeReq{ID: 1, Color: 2, From: types.MakeSN(1, 1), Client: 4},
		SubscribeResp{ID: 1, Color: 2, Records: []WireRecord{{Token: 1, SN: 2, Data: []byte("r")}}},
		TrimReq{ID: 1, Color: 2, SN: 3, Client: 4},
		TrimPeerAck{ID: 1, Color: 2, SN: 3, From: 4},
		TrimAck{ID: 1, Color: 2, Head: 3, Tail: 9},
		MultiAppendEnd{ID: 1, FID: 2, Tokens: []types.Token{3, 4}, Client: 5},
		MultiAppendAck{ID: 1},
		OrderReq{Color: 1, Token: 2, NRecords: 3, Shard: 4, Replicas: []types.NodeID{5, 6}},
		OrderResp{Token: 2, LastSN: 3, NRecords: 4, Color: 5},
		OrderReqBatch{Color: 1, Shard: 2, Replicas: []types.NodeID{3, 4}, Items: []OrderItem{{Token: 5, NRecords: 6}}},
		OrderRespBatch{Color: 1, Items: []OrderRespItem{{Token: 2, LastSN: 3, NRecords: 4}}},
		AggOrderReq{Color: 1, BatchID: 2, Total: 3, From: 4},
		AggOrderResp{BatchID: 2, LastSN: 3, Color: 4},
		SeqHeartbeat{Epoch: 1, From: 2},
		SeqHeartbeatAck{Epoch: 1, From: 2},
		EpochClaim{Epoch: 1, From: 2},
		EpochGrant{Epoch: 1, From: 2},
		EpochReject{Epoch: 1, Claimant: 2},
		SeqInit{Epoch: 1, Region: 3, From: 2},
		SeqInitAck{Epoch: 1, From: 2},
		SyncRequest{ID: 1, From: 2},
		SyncDone{ID: 1, From: 2},
		Reject{Token: 1, ID: 2, Color: 3, Tenant: 4, Code: RejectThrottled, RetryAfterMicros: 5},
		JoinFetch{ID: 1, Have: map[types.ColorID]types.SN{0: 2}, Tokens: []types.Token{3}, Budget: 4, From: 5},
		JoinEntries{ID: 1, Records: map[types.ColorID][]WireRecord{0: {{Token: 2, SN: 3, Data: []byte("e")}}},
			Frontier: map[types.ColorID]types.SN{0: 3}, Trimmed: map[types.ColorID]types.SN{0: 1}, More: true, From: 4},
		TopoUpdate{Version: 1, Regions: []TopoRegion{{Color: 0, Leader: 2, Backups: []types.NodeID{3}, Members: []types.NodeID{2, 3}, IsRoot: true}},
			Shards: []TopoShard{{ID: 1, Leaf: 0, Replicas: []types.NodeID{4}}}, From: 5},
		CtrlReconfig{Seq: 1, Op: CtrlOpJoin, Donor: 2, From: 3},
		CtrlAck{Seq: 1, Op: CtrlOpJoin, OK: true, Mode: 2, Lag: 3, Version: 4, From: 5},
		Prepare{Ballot: 1<<32 | 2, Slot: 3},
		Promise{Ballot: 1<<32 | 2, Slot: 3, OK: true, AcceptedBallot: 4, AcceptedValue: PaxosValue{N: 5, ReqID: 6, From: 7}},
		Accept{Ballot: 1<<32 | 2, Slot: 3, Value: PaxosValue{N: 5, ReqID: 6, From: 7}},
		Accepted{Ballot: 1<<32 | 2, Slot: 3, OK: true},
	}
}

// TestCodecRoundTripAllMessages frames each message as an interface value
// (the way the TCP transport ships them) and verifies it decodes
// identically, catching lossy encodings.
func TestCodecRoundTripAllMessages(t *testing.T) {
	for _, msg := range everyMessage() {
		frame, err := AppendFrame(nil, 9, msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		from, got, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if from != 9 || !reflect.DeepEqual(normalize(got), normalize(msg)) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", msg, got, msg)
		}
	}
}

// normalize maps the codec's nil-vs-empty slice ambiguity away, and the
// decoders' Entry, which is not on the wire.
func normalize(v interface{}) interface{} {
	switch m := v.(type) {
	case AppendReq:
		for i, r := range m.Records {
			if len(r) == 0 {
				m.Records[i] = nil
			}
		}
		m.Entry = nil
		return m
	case AppendBatchReq:
		m.Entry = nil
		return m
	}
	return v
}

// TestMessageCountMatchesRegistry keeps everyMessage in lockstep with the
// codec: every entry has a decoder row, and every live tag has an entry,
// so a new message type without a codec entry (or without a round-trip
// check) fails here.
func TestMessageCountMatchesRegistry(t *testing.T) {
	seen := map[byte]bool{}
	for _, msg := range everyMessage() {
		frame, err := AppendFrame(nil, 9, msg)
		if err != nil {
			t.Fatalf("%T has no wire tag: %v", msg, err)
		}
		tag := frame[4]
		if bodyCodecs[tag].decode == nil {
			t.Errorf("%T: tag %d has no bodyCodecs decode", msg, tag)
		}
		seen[tag] = true
	}
	for tag, row := range bodyCodecs {
		if (row.encode == nil) != (row.decode == nil) {
			t.Errorf("tag %d: bodyCodecs row has only one direction", tag)
		}
		if row.decode != nil && !seen[byte(tag)] {
			t.Errorf("tag %d has no everyMessage entry", tag)
		}
	}
}
