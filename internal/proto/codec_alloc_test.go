package proto

import (
	"bytes"
	"testing"

	"flexlog/internal/types"
)

// hotMessages are the steady-state data-path frames (client append/read
// rounds and the replica↔sequencer ordering rounds) whose encode and
// decode must stay allocation-free. make codec-smoke gates on this.
func hotMessages() []any {
	rec := bytes.Repeat([]byte("x"), 128)
	return []any{
		AppendReq{Color: 3, Token: types.MakeToken(7, 9), Records: [][]byte{rec, rec, rec, rec}, Client: 500},
		AppendBatchReq{Color: 3, Token: types.MakeToken(7, 9), Sets: [][][]byte{{rec, rec}, {rec}}, Client: 500},
		AppendAck{Token: types.MakeToken(7, 9), SN: types.MakeSN(1, 99)},
		ReadReq{ID: 42, Color: 3, SN: types.MakeSN(1, 99), Client: 500},
		ReadResp{ID: 42, SN: types.MakeSN(1, 99), Data: rec, Found: true},
		OrderReq{Color: 3, Token: 11, NRecords: 4, Shard: 1, Replicas: []types.NodeID{1, 2, 3}},
		OrderResp{Token: 11, LastSN: types.MakeSN(1, 103), NRecords: 4, Color: 3},
		OrderReqBatch{Color: 3, Shard: 1, Replicas: []types.NodeID{1, 2, 3},
			Items: []OrderItem{{Token: 5, NRecords: 1}, {Token: 6, NRecords: 2}}},
		OrderRespBatch{Color: 3, Items: []OrderRespItem{{Token: 5, LastSN: types.MakeSN(1, 1), NRecords: 1}}},
	}
}

// frameBody strips the length prefix, tag and sender off a frame.
func frameBody(t testing.TB, frame []byte) []byte {
	t.Helper()
	r := wireReader{b: frame[4:]}
	r.u8()
	r.u32()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.b
}

// hotDecoder returns a decode closure bound to a persistent typed message,
// so repeated calls reuse its slice/map capacity (the zero-alloc contract).
func hotDecoder(t testing.TB, msg any) func([]byte) error {
	t.Helper()
	switch msg.(type) {
	case AppendReq:
		m := &AppendReq{}
		return m.Decode
	case AppendBatchReq:
		m := &AppendBatchReq{}
		return m.Decode
	case AppendAck:
		m := &AppendAck{}
		return m.Decode
	case ReadReq:
		m := &ReadReq{}
		return m.Decode
	case ReadResp:
		m := &ReadResp{}
		return m.Decode
	case OrderReq:
		m := &OrderReq{}
		return m.Decode
	case OrderResp:
		m := &OrderResp{}
		return m.Decode
	case OrderReqBatch:
		m := &OrderReqBatch{}
		return m.Decode
	case OrderRespBatch:
		m := &OrderRespBatch{}
		return m.Decode
	default:
		t.Fatalf("unhandled hot type %T", msg)
		return nil
	}
}

// TestCodecZeroAllocHotPath is the allocs/op ceiling of ISSUE 7: encoding
// into a reused buffer and decoding into a reused message must both be
// 0 allocs/op at steady state for every hot frame type.
func TestCodecZeroAllocHotPath(t *testing.T) {
	for _, msg := range hotMessages() {
		name := typeName(msg)
		boxed := msg // box once, outside the measured loop
		buf := make([]byte, 0, 4096)
		if allocs := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = AppendFrame(buf[:0], 500, boxed)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s encode: %.1f allocs/op, want 0", name, allocs)
		}

		frame, err := AppendFrame(nil, 500, msg)
		if err != nil {
			t.Fatal(err)
		}
		body := frameBody(t, frame)
		decode := hotDecoder(t, msg)
		if err := decode(body); err != nil { // populate reusable capacity
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := decode(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s decode: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

func typeName(msg any) string {
	if wm, ok := msg.(wireMessage); ok {
		for _, g := range goldenFrames {
			if gw, ok := g.msg.(wireMessage); ok && gw.wireTag() == wm.wireTag() {
				return g.name
			}
		}
	}
	return "?"
}

// BenchmarkCodecEncode / BenchmarkCodecDecode measure the binary codec on
// a 4×128 B append frame.
func BenchmarkCodecEncode(b *testing.B) {
	var msg any = hotMessages()[0]
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], 500, msg)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	req := hotMessages()[0].(AppendReq)
	frame, err := AppendFrame(nil, 500, req)
	if err != nil {
		b.Fatal(err)
	}
	body := frameBody(b, frame)
	var m AppendReq
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecDecodeFrame includes the frame-level ownership copy the
// TCP read path pays so pooled buffers can recycle immediately.
func BenchmarkCodecDecodeFrame(b *testing.B) {
	frame, err := AppendFrame(nil, 500, hotMessages()[0])
	if err != nil {
		b.Fatal(err)
	}
	body := frame[4:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(body); err != nil {
			b.Fatal(err)
		}
	}
}
