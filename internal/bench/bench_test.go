package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func quick() RunConfig { return RunConfig{Quick: true} }

// runExperiment runs one experiment in quick mode and checks what holds
// for every experiment: the report has the recorded schema (schema_test.go)
// and the run left no goroutines behind.
func runExperiment(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	before := runtime.NumGoroutine()
	rep, err := e.Run(quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.String() == "" {
		t.Fatalf("%s produced empty report", id)
	}
	t.Logf("\n%s", rep)
	if err := checkSchema(rep); err != nil {
		t.Errorf("%s report changed shape: %v", id, err)
	}
	checkNoGoroutineLeak(t, id, before)
	return rep
}

// checkNoGoroutineLeak fails the test if, 10 s after `what` finished, more
// goroutines run than before it started. Endpoint close is asynchronous,
// so it polls; the slack tolerates runtime goroutines that come and go
// (the bound and polling of core.TestStopReleasesGoroutines). The leak
// this guards against is O(deployment size): a network nobody shut down.
func checkNoGoroutineLeak(t *testing.T, what string, before int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		now := runtime.NumGoroutine()
		if now <= before+5 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%s leaked goroutines: %d before, %d after", what, before, now)
			return
		}
	}
}

// skipUnderRace skips a measurement-based shape test under the race
// detector, whose 5-20x slowdown distorts every ratio the gates look at.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("measurement-based shape test skipped under the race detector")
	}
}

// shapeTest runs a measurement-based experiment and checks its report
// against gates, up to `attempts` times: the gates compare windows taken
// at different times (modeled throughput follows wall-clock batching
// windows; latency gates compare two ~100 µs measurements), so under the
// whole-repo parallel `go test ./...` one side can be handed a bad window.
// A persistent failure is real.
func shapeTest(t *testing.T, id string, attempts int, gates func(*Report) error) {
	t.Helper()
	skipUnderRace(t)
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err = gates(runExperiment(t, id)); err == nil {
			return
		}
		t.Logf("attempt %d: %v", attempt, err)
	}
	t.Error(err)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig4lat", "fig4thr", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11",
		"ablate-batch", "ablate-cache", "ablate-readhold",
		"ablate-clientbatch", "ablate-readpath", "ablate-writepath",
		"ablate-tiering", "ablate-codec", "ablate-qos", "ablate-seq",
		"ablate-reconfig",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestTable1Shape(t *testing.T) {
	skipUnderRace(t)
	rep := runExperiment(t, "table1")
	for _, fn := range []string{"Video processing", "Gzip compression"} {
		total, ok := rep.Value(fn, "Total")
		if !ok {
			t.Fatalf("missing Total for %s", fn)
		}
		// Paper: 41% and 48.1%. The synthetic pipelines must land in the
		// same regime: storage is a major cost but not everything.
		if total < 10 || total > 85 {
			t.Errorf("%s storage share = %.1f%%, outside plausible regime", fn, total)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	skipUnderRace(t)
	rep := runExperiment(t, "fig1")
	for _, label := range []string{"64", "1024", "8192"} {
		pm, ok1 := rep.Value("pmem_read", label)
		sys, ok2 := rep.Value("read_syscall", label)
		file, ok3 := rep.Value("fileio_read", label)
		if !ok1 || !ok2 || !ok3 {
			t.Fatalf("missing series values at %s", label)
		}
		// The Figure 1 ladder: pmem < pmem-syscall < fileio.
		if !(pm < sys && sys < file) {
			t.Errorf("latency ladder broken at %sB: pm=%.0f sys=%.0f file=%.0f", label, pm, sys, file)
		}
	}
	// "PM improves I/O latency up to 10x compared to SSDs."
	pm, _ := rep.Value("pmem_read", "8192")
	file, _ := rep.Value("fileio_read", "8192")
	if file < 5*pm {
		t.Errorf("PM/SSD gap too small at 8K: pm=%.0f file=%.0f", pm, file)
	}
}

func TestFig4LatencyShape(t *testing.T) {
	rep := runExperiment(t, "fig4lat")
	for _, label := range []string{"10", "50"} {
		flex, ok1 := rep.Value("FlexLog", label)
		boki, ok2 := rep.Value("Boki", label)
		if !ok1 || !ok2 {
			t.Fatalf("missing values at %s%% reads", label)
		}
		// Paper: FlexLog 2.5–4x faster. Accept >= 1.5x as the shape.
		if boki < 1.5*flex {
			t.Errorf("ordering latency gap too small at %s%%: flex=%.0fµs boki=%.0fµs", label, flex, boki)
		}
	}
}

func TestFig4ThroughputShape(t *testing.T) {
	rep := runExperiment(t, "fig4thr")
	flex, _ := rep.Value("FlexLog", "10")
	flexP, _ := rep.Value("FlexLog-P", "10")
	paxos, _ := rep.Value("Paxos", "10")
	if flex <= 0 || flexP <= 0 || paxos <= 0 {
		t.Fatalf("missing throughput values: %v %v %v", flex, flexP, paxos)
	}
	// Paper: FlexLog 2–3x Paxos; FlexLog-P >= FlexLog.
	if flex < 1.5*paxos {
		t.Errorf("FlexLog %.0fk not well above Paxos %.0fk", flex, paxos)
	}
	if flexP < flex*0.95 {
		t.Errorf("FlexLog-P %.0fk below total-order FlexLog %.0fk", flexP, flex)
	}
}

func TestFig5Shape(t *testing.T) {
	rep := runExperiment(t, "fig5")
	for _, label := range []string{"64", "1K", "8K"} {
		flex, ok1 := rep.Value("FlexLog (PM)", label)
		boki, ok2 := rep.Value("Boki (RocksDB)", label)
		if !ok1 || !ok2 {
			t.Fatalf("missing values at %s", label)
		}
		// Paper: an order of magnitude. Accept >= 4x as the shape.
		if flex < 4*boki {
			t.Errorf("storage gap too small at %s: flex=%.0f boki=%.0f", label, flex, boki)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	rep := runExperiment(t, "fig6")
	flex1, _ := rep.Value("FlexLog (PM)", "1")
	flex12, _ := rep.Value("FlexLog (PM)", "12")
	boki1, _ := rep.Value("Boki (RocksDB)", "1")
	boki12, _ := rep.Value("Boki (RocksDB)", "12")
	if flex12 < 4*flex1 {
		t.Errorf("FlexLog does not scale with threads: %.0f -> %.0f", flex1, flex12)
	}
	if boki12 < 2*boki1 {
		t.Errorf("Boki does not scale with threads: %.0f -> %.0f", boki1, boki12)
	}
	if flex12 < 4*boki12 {
		t.Errorf("FlexLog not well above Boki at 12 threads: %.0f vs %.0f", flex12, boki12)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := runExperiment(t, "fig7")
	flex0, _ := rep.Value("FlexLog (PM)", "0")
	flex99, _ := rep.Value("FlexLog (PM)", "99")
	boki0, _ := rep.Value("Boki (RocksDB)", "0")
	boki99, _ := rep.Value("Boki (RocksDB)", "99")
	// Read-heavy workloads are faster for both engines (cache/MemTable).
	if flex99 < flex0 {
		t.Errorf("FlexLog read-heavy slower than write-heavy: %.0f vs %.0f", flex99, flex0)
	}
	if boki99 < boki0 {
		t.Errorf("Boki read-heavy slower than write-heavy: %.0f vs %.0f", boki99, boki0)
	}
}

func TestFig8Shape(t *testing.T) {
	rep := runExperiment(t, "fig8")
	app2, _ := rep.Value("Appends", "2")
	app8, _ := rep.Value("Appends", "8")
	rd2, _ := rep.Value("Reads", "2")
	rd8, _ := rep.Value("Reads", "8")
	if app2 <= 0 || app8 <= 0 {
		t.Fatal("missing append latencies")
	}
	// Paper: append latency grows with replication; reads stay flat.
	if app8 < app2 {
		t.Errorf("append latency fell with replication: %.2fms -> %.2fms", app2, app8)
	}
	if rd8 > 3*rd2+1 {
		t.Errorf("read latency not flat: %.2fms -> %.2fms", rd2, rd8)
	}
	if rd2 > app2 {
		t.Errorf("reads (%.2fms) should be cheaper than appends (%.2fms)", rd2, app2)
	}
}

func TestFig9Shape(t *testing.T) {
	rep := runExperiment(t, "fig9")
	one, _ := rep.Value("FlexLog ordering", "1")
	four, _ := rep.Value("FlexLog ordering", "4")
	if one <= 0 || four <= 0 {
		t.Fatal("missing throughput values")
	}
	// Paper: linear scaling (~1M extra per leaf). Accept >= 2.5x at 4.
	if four < 2.5*one {
		t.Errorf("ordering layer not scaling: 1 leaf %.2fM, 4 leaves %.2fM", one, four)
	}
	// Calibration: a single leaf saturates around ~1.2M reqs/s.
	if one < 0.5 || one > 3 {
		t.Errorf("single-leaf capacity %.2fM off the calibrated ~1.2M", one)
	}
}

func TestFig10Shape(t *testing.T) {
	rep := runExperiment(t, "fig10")
	small, _ := rep.Value("Recovery time", "1K")
	large, ok := rep.Value("Recovery time", "100K")
	if !ok {
		t.Fatal("missing 100K point")
	}
	// Linear growth: 100x records => much larger recovery time.
	if large < 5*small {
		t.Errorf("recovery not growing with records: 1K=%.2fms 100K=%.2fms", small, large)
	}
}

// TestTieringShape is the tiering-smoke acceptance check: with the
// lifecycle on (PM budget + checkpoints) recovery replay stays flat as
// the log grows 4x at a constant live window, while the lifecycle-less
// store's replay grows with the whole flushed log. The experiment itself
// already asserts that every append succeeded and that evicted reads were
// served from the cold tier.
func TestTieringShape(t *testing.T) {
	rep := runExperiment(t, "ablate-tiering")
	onFirst, ok1 := rep.Value("Replay (lifecycle on)", "1x")
	onLast, ok2 := rep.Value("Replay (lifecycle on)", "4x")
	offFirst, ok3 := rep.Value("Replay (lifecycle off)", "1x")
	offLast, ok4 := rep.Value("Replay (lifecycle off)", "4x")
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatal("missing replay points")
	}
	// Checkpoints bound replay: 4x log growth must not grow the replayed
	// suffix beyond one checkpoint interval of slack.
	if onLast > 1.3*onFirst+256 {
		t.Errorf("lifecycle-on replay grew with the log: 1x=%.0f 4x=%.0f entries", onFirst, onLast)
	}
	// The ablation baseline rescans everything flushed — it must grow.
	if offLast < 2*offFirst {
		t.Errorf("lifecycle-off replay did not grow: 1x=%.0f 4x=%.0f entries", offFirst, offLast)
	}
	// What recovery replays is the resident set the budget leaves, not
	// whatever the background pass happened to have freed or reused: a
	// second run replays exactly the same entries at every size.
	again := runExperiment(t, "ablate-tiering")
	for _, x := range []string{"1x", "2x", "3x", "4x"} {
		a, _ := rep.Value("Replay (lifecycle on)", x)
		b, _ := again.Value("Replay (lifecycle on)", x)
		if a != b {
			t.Errorf("lifecycle-on replay at %s differs between two runs: %.0f vs %.0f entries", x, a, b)
		}
	}
	if raceEnabled {
		return // wall-clock assertions are meaningless under -race
	}
	recFirst, _ := rep.Value("Recovery (lifecycle on)", "1x")
	recLast, ok := rep.Value("Recovery (lifecycle on)", "4x")
	if !ok {
		t.Fatal("missing recovery points")
	}
	// Lenient flatness: bounded replay must keep recovery time from
	// tracking log growth (4x data, well under 2.5x time).
	if recLast > 2.5*recFirst+1 {
		t.Errorf("lifecycle-on recovery time grew with the log: 1x=%.2fms 4x=%.2fms", recFirst, recLast)
	}
}

func TestFig11Shape(t *testing.T) {
	shapeTest(t, "fig11", 2, fig11ShapeGates)
}

func fig11ShapeGates(rep *Report) error {
	thr3, _ := rep.Value("Throughput (3 shards)", "4")
	thr6, _ := rep.Value("Throughput (6 shards)", "4")
	rd3, _ := rep.Value("Read lat (3 shards)", "4")
	rd6, _ := rep.Value("Read lat (6 shards)", "4")
	if thr3 <= 0 || thr6 <= 0 {
		return fmt.Errorf("missing throughput values")
	}
	// Paper: double the shards => ~double the throughput. Quick mode uses
	// few ops, so accept a modestly smaller factor against sampling noise.
	if thr6 < 1.4*thr3 {
		return fmt.Errorf("6 shards (%.0fk) not well above 3 shards (%.0fk)", thr6, thr3)
	}
	// Reads are local: latency roughly unaffected by data-layer scale.
	if rd6 > 2.5*rd3+1 {
		return fmt.Errorf("read latency grew with shards: %.2fms vs %.2fms", rd3, rd6)
	}
	return nil
}

func TestAblations(t *testing.T) {
	batch := runExperiment(t, "ablate-batch")
	// Larger windows must reduce per-request root messages.
	small, _ := batch.Value("Root msgs per request", "0s")
	big, ok := batch.Value("Root msgs per request", "100µs")
	if !ok {
		t.Fatal("missing 100µs point")
	}
	if big > small {
		t.Errorf("aggregation not reducing root load: %.3f -> %.3f", small, big)
	}

	cache := runExperiment(t, "ablate-cache")
	on, _ := cache.Value("Read throughput", "on")
	off, _ := cache.Value("Read throughput", "off")
	if on < off {
		t.Errorf("cache made reads slower: on=%.0f off=%.0f", on, off)
	}

	hold := runExperiment(t, "ablate-readhold")
	s0, _ := hold.Value("Read success", "0s")
	s5, ok := hold.Value("Read success", "5ms")
	if !ok {
		t.Fatal("missing 5ms point")
	}
	if s5 < s0 {
		t.Errorf("read-hold did not improve success: 0s=%.0f%% 5ms=%.0f%%", s0, s5)
	}
}

func TestAblateClientBatchShape(t *testing.T) {
	skipUnderRace(t)
	rep := runExperiment(t, "ablate-clientbatch")
	thrOff, ok1 := rep.Value("Append throughput", "off")
	thrOn, ok2 := rep.Value("Append throughput", "on")
	if !ok1 || !ok2 || thrOff <= 0 {
		t.Fatalf("missing throughput values: off=%v on=%v", thrOff, thrOn)
	}
	// ISSUE acceptance: batching buys >= 2x modeled records/sec under
	// concurrent callers (the leaf sequencer's three OrderReqs per append
	// amortize across the batch).
	if thrOn < 2*thrOff {
		t.Errorf("batching gain too small: on=%.0fk off=%.0fk (<2x)", thrOn, thrOff)
	}
	size, ok := rep.Value("Mean batch size", "on")
	if !ok || size < 2 {
		t.Errorf("mean batch size %.1f, want >= 2 under concurrent callers", size)
	}
	latOff, ok1 := rep.Value("1-client mean latency", "off")
	latOn, ok2 := rep.Value("1-client mean latency", "on")
	if !ok1 || !ok2 || latOff <= 0 {
		t.Fatalf("missing latency values: off=%v on=%v", latOff, latOn)
	}
	// A lone closed-loop client pays at most the linger (100 µs) on top of
	// the unbatched latency; allow scheduling slack on loaded CI machines.
	linger := clientBatchTuning().MaxBatchDelay.Seconds() * 1e6
	const slackUsec = 1000
	if latOn > latOff+linger+slackUsec {
		t.Errorf("single-client latency regressed beyond the linger: on=%.0fµs off=%.0fµs linger=%.0fµs",
			latOn, latOff, linger)
	}
}

func TestAblateReadPathShape(t *testing.T) {
	shapeTest(t, "ablate-readpath", 2, readPathShapeGates)
}

// readPathShapeGates checks one ablate-readpath report against the
// acceptance bars of the read-lane PR.
func readPathShapeGates(rep *Report) error {
	// ISSUE acceptance: >= 4x modeled read throughput at the largest reader
	// count under the 95% read mix (the read lane divides read-class work
	// across the replica's worker pool).
	thrOff, ok1 := rep.Value("95%R lane off", "64")
	thrOn, ok2 := rep.Value("95%R lane on", "64")
	if !ok1 || !ok2 || thrOff <= 0 {
		return fmt.Errorf("missing 64-reader throughput values: off=%v on=%v", thrOff, thrOn)
	}
	if thrOn < 4*thrOff {
		return fmt.Errorf("lane gain too small at 64 readers/95%%R: on=%.0fk off=%.0fk (<4x)", thrOn, thrOff)
	}
	// The 50% mix still benefits but less: the mutation stream stays serial.
	mixOff, ok1 := rep.Value("50%R lane off", "64")
	mixOn, ok2 := rep.Value("50%R lane on", "64")
	if !ok1 || !ok2 || mixOff <= 0 {
		return fmt.Errorf("missing 50%%R values: off=%v on=%v", mixOff, mixOn)
	}
	if mixOn < mixOff {
		return fmt.Errorf("lane hurt the 50%%R mix: on=%.0fk off=%.0fk", mixOn, mixOff)
	}
	// ISSUE acceptance: a lone closed-loop reader must not regress beyond
	// 10% (plus scheduling slack for loaded CI machines).
	latOff, ok1 := rep.Value("1-reader lat off", "1")
	latOn, ok2 := rep.Value("1-reader lat on", "1")
	if !ok1 || !ok2 || latOff <= 0 {
		return fmt.Errorf("missing single-reader latency values: off=%v on=%v", latOff, latOn)
	}
	// 100 µs absolute slack: the measurement is ~100 µs and the full test
	// suite runs packages in parallel, so scheduling noise alone can add
	// tens of µs to either side.
	const slackUsec = 100
	if latOn > 1.10*latOff+slackUsec {
		return fmt.Errorf("single-reader latency regressed: on=%.0fµs off=%.0fµs (>10%%)", latOn, latOff)
	}
	return nil
}

func TestAblateWritePathShape(t *testing.T) {
	skipUnderRace(t)
	rep := runExperiment(t, "ablate-writepath")
	// ISSUE acceptance: >= 4x modeled append throughput at the largest
	// writer count across >= 8 colors with the full write path vs the
	// serialized one.
	thrSerial, ok1 := rep.Value("serial", "64")
	thrFull, ok2 := rep.Value("full", "64")
	if !ok1 || !ok2 || thrSerial <= 0 {
		t.Fatalf("missing 64-writer throughput values: serial=%v full=%v", thrSerial, thrFull)
	}
	if thrFull < 4*thrSerial {
		t.Errorf("write-path gain too small at 64 writers: full=%.0fk serial=%.0fk (<4x)", thrFull, thrSerial)
	}
	// Each ablation step must not regress the previous one.
	thrLanes, ok := rep.Value("+lanes", "64")
	if !ok || thrLanes < thrSerial {
		t.Errorf("write lanes alone regressed throughput: lanes=%.0fk serial=%.0fk", thrLanes, thrSerial)
	}
	thrGC, ok := rep.Value("+group-commit", "64")
	if !ok || thrGC < 0.9*thrLanes {
		t.Errorf("group commit regressed the lanes mode: gc=%.0fk lanes=%.0fk", thrGC, thrLanes)
	}
	// ISSUE acceptance: a lone closed-loop writer must not regress beyond
	// 10% (plus scheduling slack for loaded CI machines).
	latSerial, ok1 := rep.Value("1-writer lat serial", "1")
	latFull, ok2 := rep.Value("1-writer lat full", "1")
	if !ok1 || !ok2 || latSerial <= 0 {
		t.Fatalf("missing single-writer latency values: serial=%v full=%v", latSerial, latFull)
	}
	const slackUsec = 100
	if latFull > 1.10*latSerial+slackUsec {
		t.Errorf("single-writer latency regressed: full=%.0fµs serial=%.0fµs (>10%%)", latFull, latSerial)
	}
	// Satellite: drop counters are reported and must be zero on the
	// healthy path — the silent-loss modes are now countable, not silent.
	for _, s := range []string{"append drops (full)", "oreq drops (full)"} {
		for _, label := range []string{"1", "64"} {
			d, ok := rep.Value(s, label)
			if !ok {
				t.Fatalf("missing %s at %s writers", s, label)
			}
			if d != 0 {
				t.Errorf("%s = %.0f at %s writers, want 0", s, d, label)
			}
		}
	}
}

func TestAblateSeqShape(t *testing.T) {
	shapeTest(t, "ablate-seq", 2, seqPathShapeGates)
}

// seqPathShapeGates checks one ablate-seq report against the acceptance
// bars of the lock-free-sequencer PR.
func seqPathShapeGates(rep *Report) error {
	// ISSUE acceptance: >= 3x modeled ordering throughput at 64 concurrent
	// colors with the full hot path vs the serialized delivery loop.
	thrSerial, ok1 := rep.Value("serial", "64")
	thrFull, ok2 := rep.Value("full", "64")
	if !ok1 || !ok2 || thrSerial <= 0 {
		return fmt.Errorf("missing 64-color throughput values: serial=%v full=%v", thrSerial, thrFull)
	}
	if thrFull < 3*thrSerial {
		return fmt.Errorf("hot-path gain too small at 64 colors: full=%.0fk serial=%.0fk (<3x)", thrFull, thrSerial)
	}
	// ISSUE acceptance: a lone closed-loop driver's order round-trip must
	// stay within 10% (plus scheduling slack for loaded CI machines).
	latSerial, ok1 := rep.Value("1-driver lat serial", "1")
	latFull, ok2 := rep.Value("1-driver lat full", "1")
	if !ok1 || !ok2 || latSerial <= 0 {
		return fmt.Errorf("missing single-driver latency values: serial=%v full=%v", latSerial, latFull)
	}
	const slackUsec = 100
	if latFull > 1.10*latSerial+slackUsec {
		return fmt.Errorf("single-driver latency regressed: full=%.0fµs serial=%.0fµs (>10%%)", latFull, latSerial)
	}
	return nil
}

func TestReportRendering(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", XHeader: "h"}
	if !strings.Contains(rep.String(), "x: t") {
		t.Fatal("report header missing")
	}
	if _, ok := rep.Value("nope", "nope"); ok {
		t.Fatal("phantom value")
	}
}

func TestExtBurstShape(t *testing.T) {
	rep := runExperiment(t, "ext-burst")
	for _, label := range []string{"50", "200"} {
		pct, ok := rep.Value("Completed", label)
		if !ok {
			t.Fatalf("missing completion at %s", label)
		}
		if pct < 100 {
			t.Errorf("burst %s lost work: %.1f%% completed", label, pct)
		}
	}
}

func TestAblateCodecShape(t *testing.T) {
	shapeTest(t, "ablate-codec", 3, codecShapeGates)
}

func TestAblateQoSShape(t *testing.T) {
	shapeTest(t, "ablate-qos", 2, qosShapeGates)
}

// qosShapeGates checks one ablate-qos report against the acceptance bars:
// the victim keeps the dominant share of served records under the
// aggressor flood (and >= ~80% of its solo wall-clock throughput when the
// host is fast enough for that comparison to mean anything), the
// aggressor actually gets throttled, nothing is shed at nominal (solo)
// load, and hedging cuts the slow-replica read P99.
func qosShapeGates(rep *Report) error {
	solo, ok1 := rep.Value("victim appends", "baseline")
	noisy, ok2 := rep.Value("victim appends", "qos")
	if !ok1 || !ok2 || solo <= 0 {
		return fmt.Errorf("missing victim throughput values: solo=%v noisy=%v", solo, noisy)
	}
	// The replica-side share gate is host-speed-independent: admission
	// caps the aggressor at 200 rec/s + burst, so however fast the window
	// ran, the victim must have received the overwhelming share of served
	// records. (A fair-share scheduler without admission would leave the
	// victim near its 4/5 lane weight; broken isolation drops it further.)
	shareQoS, ok := rep.Value("victim served share", "qos")
	if !ok {
		return fmt.Errorf("missing victim served share")
	}
	if shareQoS < 80 {
		return fmt.Errorf("noisy-neighbor isolation broken: victim served share %.1f%% (<80%%)", shareQoS)
	}
	// The solo-vs-noisy wall-clock ratio compares two separate time
	// windows. On an idle host it is the paper-style acceptance bar; on a
	// contended host (the whole-repo test sweep on one core) the two
	// windows mostly measure ambient load, so only a catastrophic floor
	// is enforced there — the share gate above still binds.
	const nominalKOps = 12 // fresh single-core runs deliver ~20k ops/s
	ratioBar := 0.8
	if solo < nominalKOps {
		ratioBar = 0.4
	}
	if noisy < ratioBar*solo {
		return fmt.Errorf("noisy-neighbor isolation broken: victim %.2fk ops/s with aggressor vs %.2fk solo (<%.0f%%)", noisy, solo, ratioBar*100)
	}
	if throttled, ok := rep.Value("agg throttled", "qos"); !ok || throttled == 0 {
		return fmt.Errorf("aggressor was never throttled (admission control inert): %v", throttled)
	}
	if sheds, ok := rep.Value("lane sheds", "baseline"); !ok || sheds != 0 {
		return fmt.Errorf("unexpected sheds at nominal load: %v", sheds)
	}
	unhedged, ok1 := rep.Value("read P99", "baseline")
	hedged, ok2 := rep.Value("read P99", "qos")
	if !ok1 || !ok2 || unhedged <= 0 {
		return fmt.Errorf("missing read P99 values: unhedged=%v hedged=%v", unhedged, hedged)
	}
	if hedged >= 0.9*unhedged {
		return fmt.Errorf("hedging did not cut the slow-replica tail: P99 hedged=%.0fus unhedged=%.0fus", hedged, unhedged)
	}
	if n, ok := rep.Value("hedged rounds", "qos"); !ok || n == 0 {
		return fmt.Errorf("no rounds hedged (hedging inert): %v", n)
	}
	return nil
}

// codecShapeGates checks one ablate-codec report against the acceptance
// bars: >= 2x TCP-deployment append throughput with the binary codec vs
// gob at the largest sender count, and no regression (beyond window noise)
// at the smallest.
func codecShapeGates(rep *Report) error {
	top := "8" // quick mode's largest sender count
	gobThr, ok1 := rep.Value("gob", top)
	binThr, ok2 := rep.Value("binary", top)
	if !ok1 || !ok2 || gobThr <= 0 {
		return fmt.Errorf("missing %s-sender throughput values: gob=%v binary=%v", top, gobThr, binThr)
	}
	if binThr < 2*gobThr {
		return fmt.Errorf("codec gain too small at %s senders: binary=%.0fk gob=%.0fk (<2x)", top, binThr, gobThr)
	}
	// Binary must also win (or at worst tie within noise) with a single
	// sender pair. Both codecs are sink-bound at this count, so window
	// placement dominates on a busy machine — allow a wider margin than
	// the headline gate.
	gob1, ok1 := rep.Value("gob", "2")
	bin1, ok2 := rep.Value("binary", "2")
	if !ok1 || !ok2 {
		return fmt.Errorf("missing 2-sender values: gob=%v binary=%v", gob1, bin1)
	}
	if bin1 < 0.75*gob1 {
		return fmt.Errorf("binary codec regressed the 2-sender stream: binary=%.0fk gob=%.0fk", bin1, gob1)
	}
	return nil
}

func TestAblateReconfigShape(t *testing.T) {
	shapeTest(t, "ablate-reconfig", 2, reconfigShapeGates)
}

// reconfigShapeGates checks one ablate-reconfig report against the
// DESIGN.md §15 availability bars: the dip while the split + drain run is
// bounded (no stall — clients ride typed rejections and re-resolution),
// and post-split throughput recovers to >= 95% of pre-split.
func reconfigShapeGates(rep *Report) error {
	pre, ok1 := rep.Value("append throughput", "pre")
	during, ok2 := rep.Value("append throughput", "during")
	post, ok3 := rep.Value("append throughput", "post")
	if !ok1 || !ok2 || !ok3 || pre <= 0 {
		return fmt.Errorf("missing phase values: pre=%v during=%v post=%v", pre, during, post)
	}
	if during < 0.5*pre {
		return fmt.Errorf("reconfiguration dip not bounded: during=%.1fk pre=%.1fk (<50%%)", during, pre)
	}
	if post < 0.95*pre {
		return fmt.Errorf("post-split throughput did not recover: post=%.1fk pre=%.1fk (<95%%)", post, pre)
	}
	return nil
}
