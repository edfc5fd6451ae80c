package proto

import (
	"bytes"
	"encoding/gob"
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
		AggOrderReqBatch{From: 4, Items: []AggOrderItem{{Color: 1, BatchID: 2, Total: 3}, {Color: 5, BatchID: 6, Total: 7}}},
		AggOrderRespBatch{From: 4, Items: []AggOrderRespItem{{Color: 1, BatchID: 2, LastSN: 3}}},
		SeqHeartbeat{Epoch: 1, From: 2},
		SeqHeartbeatAck{Epoch: 1, From: 2},
		EpochClaim{Epoch: 1, From: 2},
		EpochGrant{Epoch: 1, From: 2},
		EpochReject{Epoch: 1, Claimant: 2},
		SeqInit{Epoch: 1, From: 2},
		SeqInitAck{Epoch: 1, From: 2},
		SyncRequest{ID: 1, From: 2},
		SyncState{ID: 1, Epoch: 2, MaxSNs: map[types.ColorID]types.SN{3: 4}, From: 5},
		SyncCatchup{ID: 1, UpToDate: 2, Max: map[types.ColorID]types.SN{3: 4}, Epoch: 5, From: 6},
		SyncDone{ID: 1, From: 2},
	}
}

// TestGobRoundTripAllMessages encodes each message as an interface value
// (the way the TCP transport ships them) and verifies it decodes
// identically — catching both unregistered types and lossy encodings.
func TestGobRoundTripAllMessages(t *testing.T) {
	RegisterGob()
	RegisterGob() // idempotent
	for _, msg := range everyMessage() {
		var buf bytes.Buffer
		type envelope struct {
			From types.NodeID
			Msg  interface{}
		}
		if err := gob.NewEncoder(&buf).Encode(envelope{From: 9, Msg: msg}); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		var got envelope
		if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if !reflect.DeepEqual(normalize(got.Msg), normalize(msg)) {
			t.Errorf("%T: round trip mismatch:\n got %#v\nwant %#v", msg, got.Msg, msg)
		}
	}
}

// normalize maps gob's nil-vs-empty slice ambiguity away.
func normalize(v interface{}) interface{} {
	if ar, ok := v.(AppendReq); ok {
		for i, r := range ar.Records {
			if len(r) == 0 {
				ar.Records[i] = nil
			}
		}
		return ar
	}
	return v
}

// TestMessageCountMatchesRegistry keeps everyMessage in sync with the
// RegisterGob list: a new message type must be added to both.
func TestMessageCountMatchesRegistry(t *testing.T) {
	const registered = 31 // keep in lockstep with RegisterGob
	if got := len(everyMessage()); got != registered {
		t.Fatalf("everyMessage has %d entries, RegisterGob registers %d — update both together", got, registered)
	}
}
