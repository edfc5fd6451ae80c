// Package flexlog's root benchmark suite: one testing.B benchmark per
// table and figure of the paper's evaluation (each drives the same
// experiment harness as cmd/flexlog-bench in quick mode and reports the
// headline number as a custom metric), plus micro-benchmarks of the hot
// paths (storage put/get, ordering round, end-to-end append/read).
//
// Run with:
//
//	go test -bench=. -benchmem
package flexlog

import (
	"fmt"
	"testing"

	"flexlog/internal/bench"
	"flexlog/internal/core"
	"flexlog/internal/pmem"
	"flexlog/internal/ssd"
	"flexlog/internal/storage"
	"flexlog/internal/types"
	"flexlog/internal/workload"
)

// runQuick executes one harness experiment per benchmark iteration and
// reports the value of (series, label) as a custom metric.
func runQuick(b *testing.B, id, series, label, metric string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last float64
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.RunConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		v, ok := rep.Value(series, label)
		if !ok {
			b.Fatalf("experiment %s has no point (%s, %s)", id, series, label)
		}
		last = v
	}
	b.ReportMetric(last, metric)
}

// ---- One benchmark per table/figure (§9) ----

func BenchmarkTable1Profile(b *testing.B) {
	runQuick(b, "table1", "Video processing", "Total", "storage_pct")
}

func BenchmarkFig1StorageLatency(b *testing.B) {
	runQuick(b, "fig1", "pmem_read", "1024", "pm_read_ns")
}

func BenchmarkFig4OrderingLatency(b *testing.B) {
	runQuick(b, "fig4lat", "FlexLog", "10", "order_usec")
}

func BenchmarkFig4OrderingThroughput(b *testing.B) {
	runQuick(b, "fig4thr", "FlexLog", "10", "kops_per_sec")
}

func BenchmarkFig5RecordSize(b *testing.B) {
	runQuick(b, "fig5", "FlexLog (PM)", "1K", "ops_per_sec")
}

func BenchmarkFig6Threads(b *testing.B) {
	runQuick(b, "fig6", "FlexLog (PM)", "12", "ops_per_sec")
}

func BenchmarkFig7ReadRatio(b *testing.B) {
	runQuick(b, "fig7", "FlexLog (PM)", "50", "ops_per_sec")
}

func BenchmarkFig8Replication(b *testing.B) {
	runQuick(b, "fig8", "Appends", "3", "append_ms")
}

func BenchmarkFig9Sequencers(b *testing.B) {
	runQuick(b, "fig9", "FlexLog ordering", "4", "mreqs_per_sec")
}

func BenchmarkFig10Recovery(b *testing.B) {
	runQuick(b, "fig10", "Recovery time", "100K", "recovery_ms")
}

func BenchmarkFig11Shards(b *testing.B) {
	runQuick(b, "fig11", "Throughput (6 shards)", "4", "kops_per_sec")
}

func BenchmarkAblateBatchWindow(b *testing.B) {
	runQuick(b, "ablate-batch", "Root msgs per request", "100µs", "root_msgs_per_req")
}

func BenchmarkAblateCache(b *testing.B) {
	runQuick(b, "ablate-cache", "Cache hit rate", "on", "hit_pct")
}

func BenchmarkAblateReadHold(b *testing.B) {
	runQuick(b, "ablate-readhold", "Read success", "5ms", "success_pct")
}

// ---- Micro-benchmarks of the hot paths ----

func BenchmarkStoragePut(b *testing.B) {
	st, err := storage.Open(storage.Config{
		SegmentSize: 4 << 20, NumSegments: 32, CacheBytes: 8 << 20,
		PMModel: pmem.Zero(), SSDModel: ssd.Zero(),
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := types.Token(i + 1)
		if err := st.Put(1, tok, payload); err != nil {
			b.Fatal(err)
		}
		if err := st.Commit(tok, types.MakeSN(1, uint32(i+1))); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			st.Trim(1, types.MakeSN(1, uint32(i-2048)))
		}
	}
}

func BenchmarkStorageGet(b *testing.B) {
	st, err := storage.Open(storage.Config{
		SegmentSize: 4 << 20, NumSegments: 8, CacheBytes: 8 << 20,
		PMModel: pmem.Zero(), SSDModel: ssd.Zero(),
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(1024, 1)
	const n = 1000
	for i := 1; i <= n; i++ {
		st.Put(1, types.Token(i), payload)
		st.Commit(types.Token(i), types.MakeSN(1, uint32(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Get(1, types.MakeSN(1, uint32(i%n+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndAppend(b *testing.B) {
	cluster, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	client, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Append([][]byte{payload}, types.MasterColor); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndRead(b *testing.B) {
	cluster, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	client, err := cluster.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(256, 2)
	const n = 64
	sns := make([]types.SN, n)
	for i := 0; i < n; i++ {
		sn, err := client.Append([][]byte{payload}, types.MasterColor)
		if err != nil {
			b.Fatal(err)
		}
		sns[i] = sn
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Read(sns[i%n], types.MasterColor); err != nil {
			b.Fatal(err)
		}
	}
}

// Ensure the registry and ids stay in sync with the documented set.
func TestBenchmarkIDsExist(t *testing.T) {
	for _, id := range []string{
		"table1", "fig1", "fig4lat", "fig4thr", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11",
		"ablate-batch", "ablate-cache", "ablate-readhold",
	} {
		if _, ok := bench.ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	_ = fmt.Sprint // keep fmt for future debug output
}
