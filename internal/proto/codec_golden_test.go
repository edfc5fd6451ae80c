package proto

import (
	"encoding/hex"
	"errors"
	"testing"

	"flexlog/internal/types"
)

// goldenFrom is the sender id every golden frame is encoded with.
const goldenFrom types.NodeID = 500

// goldenFrames pins the exact wire image of every message type (frame
// length prefix, tag, sender, body). These bytes are the cross-version
// compatibility contract of DESIGN.md §12: a codec change that alters any
// of them breaks mixed-version clusters and must bump the Magic preamble
// instead of silently reframing.
var goldenFrames = []struct {
	name string
	msg  any
	hex  string
}{
	{"AppendReq", AppendReq{Color: 0x3, Token: 0x700000009, Records: [][]uint8{[]uint8{0x61, 0x62}, []uint8(nil), []uint8{0x63}}, Client: 0x1f4, Tenant: 0x7},
		"1300000001f40303898080807003026162000163f40307"},
	{"AppendBatchReq", AppendBatchReq{Color: 0x1, Token: 0x2, Sets: [][][]uint8{[][]uint8{[]uint8{0x78}}, [][]uint8{[]uint8{0x79, 0x7a}, []uint8{0x77}}}, Client: 0x6, Tenant: 0x9},
		"1100000002f4030102020101780202797a01770609"},
	{"AppendAck", AppendAck{Token: 0x100000002, SN: 0x100000003},
		"0d00000003f40382808080108380808010"},
	{"ReadReq", ReadReq{ID: 0x4d, Color: 0x3, SN: 0x100000009, Client: 0x1f4, Tenant: 0x7},
		"0d00000004f4034d038980808010f40307"},
	{"ReadResp", ReadResp{ID: 0x4d, SN: 0x100000009, Data: []uint8{0x64, 0x61, 0x74, 0x61}, Found: true, Status: 0x0},
		"1000000005f4034d898080801004646174610100"},
	{"ReadRespMiss", ReadResp{ID: 0x4e, SN: 0x100000009, Data: []uint8(nil), Found: false, Status: 0x1},
		"0c00000005f4034e8980808010000001"},
	{"SubscribeReq", SubscribeReq{ID: 0x5, Color: 0x2, From: 0x100000001, Client: 0x1f4},
		"0c00000006f40305028180808010f403"},
	{"SubscribeResp", SubscribeResp{ID: 0x5, Color: 0x2, Records: []WireRecord{WireRecord{Token: 0x9, SN: 0x100000004, Data: []uint8{0x72}}}},
		"0e00000007f4030502010984808080100172"},
	{"TrimReq", TrimReq{ID: 0x8, Color: 0x2, SN: 0x100000006, Client: 0x1f4},
		"0c00000008f40308028680808010f403"},
	{"TrimPeerAck", TrimPeerAck{ID: 0x8, Color: 0x2, SN: 0x100000006, From: 0x3},
		"0b00000009f4030802868080801003"},
	{"TrimAck", TrimAck{ID: 0x8, Color: 0x2, Head: 0x100000007, Tail: 0x100000009},
		"0f0000000af403080287808080108980808010"},
	{"MultiAppendEnd", MultiAppendEnd{ID: 0x4, FID: 0x7, Tokens: []types.Token{0x1, 0x2}, Client: 0x1f4},
		"0a0000000bf4030407020102f403"},
	{"MultiAppendAck", MultiAppendAck{ID: 0x4},
		"040000000cf40304"},
	{"OrderReq", OrderReq{Color: 0x3, Token: 0xb, NRecords: 0x2, Shard: 0x1, Replicas: []types.NodeID{0x1, 0x2, 0x3}},
		"0b0000000df403030b020103010203"},
	{"OrderResp", OrderResp{Token: 0xb, LastSN: 0x10000000c, NRecords: 0x2, Color: 0x3},
		"0b0000000ef4030b8c808080100203"},
	{"OrderReqBatch", OrderReqBatch{Color: 0x3, Shard: 0x1, Replicas: []types.NodeID{0x1, 0x2}, Items: []OrderItem{OrderItem{Token: 0x5, NRecords: 0x1}, OrderItem{Token: 0x6, NRecords: 0x2}}},
		"0d0000000ff40303010201020205010602"},
	{"OrderRespBatch", OrderRespBatch{Color: 0x3, Items: []OrderRespItem{OrderRespItem{Token: 0x5, LastSN: 0x100000002, NRecords: 0x1}}},
		"0c00000010f403030105828080801001"},
	{"AggOrderReq", AggOrderReq{Color: 0x0, BatchID: 0x13, Total: 0x6, From: 0x384},
		"0800000011f4030013068407"},
	{"AggOrderResp", AggOrderResp{BatchID: 0x13, LastSN: 0x200000002, Color: 0x0},
		"0a00000012f40313828080802000"},
	{"SeqHeartbeat", SeqHeartbeat{Epoch: 0x2, From: 0x384},
		"0600000013f403028407"},
	{"SeqHeartbeatAck", SeqHeartbeatAck{Epoch: 0x2, From: 0x385},
		"0600000014f403028507"},
	{"EpochClaim", EpochClaim{Epoch: 0x3, From: 0x385},
		"0600000015f403038507"},
	{"EpochGrant", EpochGrant{Epoch: 0x3, From: 0x386},
		"0600000016f403038607"},
	{"EpochReject", EpochReject{Epoch: 0x3, Claimant: 0x385, LeaderAlive: true},
		"0700000017f40303850701"},
	{"SeqInit", SeqInit{Epoch: 0x3, Region: 0x1, From: 0x385},
		"0700000018f40303018507"},
	{"SeqInitAck", SeqInitAck{Epoch: 0x3, From: 0x1},
		"0500000019f4030301"},
	{"SyncRequest", SyncRequest{ID: 0x6, From: 0x2},
		"050000001bf4030602"},
	{"SyncDone", SyncDone{ID: 0x6, From: 0x3},
		"0500000020f4030603"},
	{"Reject", Reject{Token: 0xb, ID: 0x4d, Color: 0x3, Tenant: 0x7, Code: RejectThrottled, IsRead: false, RetryAfterMicros: 1500},
		"0b00000021f4030b4d03070100dc0b"},
	{"JoinFetch", JoinFetch{ID: 0x6, Have: map[types.ColorID]types.SN{0x0: 0x100000002}, Tokens: []types.Token{0x700000009}, Budget: 0x80, From: 0x2},
		"1400000024f4030601008280808010018980808070800102"},
	{"JoinEntries", JoinEntries{ID: 0x6, Records: map[types.ColorID][]WireRecord{0x0: {WireRecord{Token: 0x1, SN: 0x100000003, Data: []uint8{0x65}}}}, Frontier: map[types.ColorID]types.SN{0x0: 0x100000004}, Trimmed: map[types.ColorID]types.SN{0x0: 0x100000001}, More: true, From: 0x3},
		"1f00000025f40306010001018380808010016501008480808010010081808080100103"},
	{"TopoUpdate", TopoUpdate{Version: 0x7, Regions: []TopoRegion{
		{Color: 0x0, Parent: 0x0, Leader: 0x64, Backups: []types.NodeID{0x65}, Members: []types.NodeID{0x64, 0x65}, IsRoot: true},
		{Color: 0x1, Parent: 0x0, Leader: 0x6e, Backups: nil, Members: []types.NodeID{0x6e}, IsRoot: false},
	}, Shards: []TopoShard{{ID: 0x1, Leaf: 0x1, Replicas: []types.NodeID{0x1, 0x2, 0x3}}}, From: 0x1f4},
		"1e00000026f403070200006401650264650101006e00016e0001010103010203f403"},
	{"CtrlReconfig", CtrlReconfig{Seq: 0x9, Op: CtrlOpJoin, Donor: 0x2, From: 0x1f4},
		"0800000027f403090102f403"},
	{"CtrlAck", CtrlAck{Seq: 0x9, Op: CtrlOpJoin, OK: true, Mode: 0x5, Lag: 0x2a, Version: 0x7, From: 0x3},
		"0a00000028f403090101052a0703"},
}

// TestCodecGoldenBytes checks encode produces exactly the pinned bytes
// and that decoding those bytes re-encodes to the same image.
func TestCodecGoldenBytes(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			frame, err := AppendFrame(nil, goldenFrom, g.msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(frame); got != g.hex {
				t.Fatalf("wire image changed:\n got %s\nwant %s", got, g.hex)
			}
			raw, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			from, msg, err := DecodeFrame(raw[4:])
			if err != nil {
				t.Fatalf("decoding golden bytes: %v", err)
			}
			if from != goldenFrom {
				t.Fatalf("from = %v, want %v", from, goldenFrom)
			}
			re, err := AppendFrame(nil, from, msg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(re); got != g.hex {
				t.Fatalf("decode→re-encode drifted:\n got %s\nwant %s", got, g.hex)
			}
		})
	}
}

// retiredFrames are the last wire images of the retired tags (26, the
// replica liveness beat nothing read; 29 and 30, the sync-phase's former
// fetch pair; 28 and 31, SyncState and SyncCatchup, the "most up-to-date"
// election; 34 and 35, the multi-color aggregated order request and its
// answer; 255, a gob-encoded value of a type the codec did not know):
// well-formed under the old codec, malformed now.
var retiredFrames = map[byte]string{
	26:  "040000001af40302",
	28:  "1a0000001cf4030602020084808080100382808080100100818080801002",
	29:  "0c0000001df403060100828080801002",
	30:  "0f0000001ef403060100010183808080100165",
	31:  "0f0000001ff403060301008480808010000202",
	34:  "0c00000022f403840702011306021403",
	35:  "1400000023f4038407020113828080802002148580808020",
	255: "6e000000fff403207f0301010b676f6246616c6c6261636b01ff8000010101034d736701100000003fff80011c666c65786c6f672f696e7465726e616c2f70726f746f2e616c69656eff8103010105616c69656e01ff82000102010141010400010142010400000009ff8205010201040000",
}

// TestCodecRetiredTagsAreBadFrames: a peer still sending a retired tag
// gets ErrBadFrame from both decode entry points, never a reinterpreted
// message.
func TestCodecRetiredTagsAreBadFrames(t *testing.T) {
	for tag, h := range retiredFrames {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if raw[4] != tag {
			t.Fatalf("frame for tag %d carries tag %d", tag, raw[4])
		}
		if _, msg, err := DecodeFrame(raw[4:]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeFrame(tag %d) = %#v, %v; want ErrBadFrame", tag, msg, err)
		}
		var fd FrameDecoder
		if _, msg, err := fd.Decode(raw[4:]); !errors.Is(err, ErrBadFrame) {
			t.Errorf("FrameDecoder.Decode(tag %d) = %#v, %v; want ErrBadFrame", tag, msg, err)
		}
	}
}

// TestCodecGoldenCoversAllTags ensures the golden table exercises every
// codec-native tag, so adding a message type without pinning its bytes
// fails here.
func TestCodecGoldenCoversAllTags(t *testing.T) {
	seen := map[byte]bool{}
	for _, g := range goldenFrames {
		frame, err := AppendFrame(nil, goldenFrom, g.msg)
		if err != nil {
			t.Fatalf("%s is not codec-native: %v", g.name, err)
		}
		seen[frame[4]] = true
	}
	for tag := TagAppendReq; tag <= TagCtrlAck; tag++ {
		if _, retired := retiredFrames[tag]; retired {
			if seen[tag] || bodyCodecs[tag].decode != nil {
				t.Errorf("retired tag %d is in use again", tag)
			}
			continue
		}
		if !seen[tag] {
			t.Errorf("no golden frame for tag %d", tag)
		}
		if bodyCodecs[tag].decode == nil {
			t.Errorf("no decoder for tag %d", tag)
		}
	}
}
