package bench

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flexlog/internal/metrics"
	"flexlog/internal/proto"
	"flexlog/internal/transport"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// codecRegisterGob installs the proto gob dictionary once, for the gob
// side of the ablation (the binary side never consults it).
var codecRegisterGob = sync.OnceFunc(proto.RegisterGob)

// runAblateCodec measures what the wire codec costs on a real TCP
// deployment. Unlike the other ablations this one runs over actual
// loopback sockets, because the point of the binary codec is exactly the
// part the in-process network skips: encode, syscall, decode. A driver
// endpoint streams 64x64B AppendReq frames one-way to a sink endpoint
// from a sweep of concurrent senders; the sink counts records during a
// steady-state window. The gob and binary series differ only in the
// driver's outbound codec (the sink auto-detects framing per connection,
// so the same sink serves both). Micro allocs/op for both codecs are
// reported alongside as notes.
func runAblateCodec(cfg RunConfig) (*Report, error) {
	codecRegisterGob()
	senderCounts := []int{1, 4, 16}
	if cfg.Quick {
		senderCounts = []int{2, 8}
	}
	window := cfg.PointDuration()

	codecs := []transport.Codec{transport.CodecGob, transport.CodecBinary}
	if cfg.Codec != "" {
		c, err := transport.ParseCodec(cfg.Codec)
		if err != nil {
			return nil, fmt.Errorf("ablate-codec: %w", err)
		}
		codecs = []transport.Codec{c}
	}

	notes := []string{
		fmt.Sprintf("real loopback TCP, 64x64B records per append frame, %v window per point", window),
		codecAllocNote(),
	}

	var series []*metrics.Series
	var maxBatch uint64
	for _, codec := range codecs {
		s := metrics.NewSeries(codec.String(), "kRec/s")
		series = append(series, s)
		for _, senders := range senderCounts {
			rate, stats, err := codecOneWayRate(codec, senders, window)
			if err != nil {
				return nil, fmt.Errorf("ablate-codec %s/%d: %w", codec, senders, err)
			}
			s.Add(fmt.Sprint(senders), rate/1e3)
			if codec == transport.CodecBinary && stats.WritevMax > maxBatch {
				maxBatch = stats.WritevMax
			}
		}
	}
	if maxBatch > 0 {
		notes = append(notes, fmt.Sprintf("largest writev batch: %d frames in one syscall", maxBatch))
	}
	if len(series) == 2 {
		top := senderCounts[len(senderCounts)-1]
		gob, _ := series[0].Value(fmt.Sprint(top))
		binary, _ := series[1].Value(fmt.Sprint(top))
		notes = append(notes, fmt.Sprintf("binary/gob speedup at %d senders: %.1fx", top, binary/gob))
	}
	return &Report{
		ID:      "ablate-codec",
		Title:   "wire codec on TCP: hand-rolled binary vs gob, one-way append stream",
		XHeader: "senders",
		Series:  series,
		Notes:   notes,
	}, nil
}

// codecOneWayRate streams appends from a driver endpoint to a sink over
// loopback with the given outbound codec and returns steady-state
// records/s plus the driver's transport stats.
func codecOneWayRate(codec transport.Codec, senders int, window time.Duration) (float64, transport.TCPStats, error) {
	addrs, err := codecFreeAddrs(2)
	if err != nil {
		return 0, transport.TCPStats{}, err
	}
	book := transport.NewAddressBook(map[types.NodeID]string{1: addrs[0], 2: addrs[1]})

	var received atomic.Uint64
	sink, err := transport.ListenTCP(2, book, func(_ types.NodeID, msg transport.Message) {
		if m, ok := msg.(proto.AppendReq); ok {
			received.Add(uint64(len(m.Records)))
		}
	})
	if err != nil {
		return 0, transport.TCPStats{}, err
	}
	defer sink.Close()

	driver, err := transport.ListenTCP(1, book, func(types.NodeID, transport.Message) {},
		transport.WithTCPCodec(codec))
	if err != nil {
		return 0, transport.TCPStats{}, err
	}
	defer driver.Close()

	msg := proto.AppendReq{Color: types.MasterColor, Token: types.MakeToken(1, 1),
		Records: codecRecords(), Client: 1}

	var stop atomic.Bool
	sent := make(chan error, 1)
	go func() {
		sent <- fanOut(senders, func(int) error {
			for !stop.Load() {
				if err := driver.Send(2, msg); err != nil {
					return err
				}
			}
			return nil
		})
	}()

	// Warm up (dial, pool, gob type dictionary), then measure two
	// consecutive windows and keep the better one: both codecs are
	// sink-decode-bound here, so steady state is the peak rate and a
	// scheduler stall in one window should not masquerade as codec cost.
	time.Sleep(window / 4)
	var count uint64
	for i := 0; i < 2; i++ {
		base := received.Load()
		time.Sleep(window)
		if c := received.Load() - base; c > count {
			count = c
		}
	}
	stop.Store(true)
	if err := <-sent; err != nil {
		return 0, transport.TCPStats{}, err
	}
	if count == 0 {
		return 0, transport.TCPStats{}, fmt.Errorf("no records delivered in window")
	}
	return float64(count) / window.Seconds(), driver.Stats(), nil
}

// codecAllocNote measures per-frame allocations for both codecs the same
// way the codec-smoke test does, so the report carries the allocs/op side
// of the ablation next to the throughput side.
func codecAllocNote() string {
	req := proto.AppendReq{Color: types.MasterColor, Token: 1,
		Records: codecRecords(), Client: 1}
	var msg any = req
	buf := make([]byte, 0, 4096)
	binAllocs := testing.AllocsPerRun(100, func() {
		buf, _ = proto.AppendFrame(buf[:0], 1, msg)
	})
	// Persistent stream encoder into a resettable buffer — the same
	// amortization the per-connection gob path gets.
	var gbuf bytes.Buffer
	enc := gob.NewEncoder(&gbuf)
	gobAllocs := testing.AllocsPerRun(100, func() {
		gbuf.Reset()
		if err := enc.Encode(req); err != nil {
			panic(err)
		}
	})
	return fmt.Sprintf("encode allocs/op: binary %.0f, gob %.0f (64x64B append frame)", binAllocs, gobAllocs)
}

// codecRecords builds the per-frame record batch: 64 x 64B, the shape of
// a client-batched round of small state updates (the paper's serverless
// workloads skew small; see ablate-clientbatch).
func codecRecords() [][]byte {
	recs := make([][]byte, 64)
	for i := range recs {
		recs[i] = workload.Payload(64, int64(41+i))
	}
	return recs
}

// codecFreeAddrs reserves n distinct loopback addresses.
func codecFreeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}
