// Command benchmark is FlexLog's wall-clock benchmark: it boots a
// manifest-described cluster in this process, every node on its own loopback
// TCP endpoint with the binary codec, drives it through core.Client handles,
// checks the outputs, and prints every metric by name with its unit. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"flexlog/internal/deploy"
)

const (
	defaultSeed = 1
	// setupsPerRun is how often a --trace 0 run sets the cluster up (boot to
	// the end of warm-up); setup_s is the median.
	setupsPerRun = 3
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "ladder":
		err = cmdLadder(args)
	case "compare":
		err = cmdCompare(args, os.Stdout)
	default:
		err = fmt.Errorf("unknown subcommand %q (run, ladder, compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// record is one run as written to --out and read by compare.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	Env        map[string]string `json:"env"`
	Params     map[string]string `json:"params"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Violations []string          `json:"violations,omitempty"`
	Notes      []string          `json:"notes,omitempty"`
	Metrics    metricSet         `json:"metrics"`
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed for payload bytes, key choice, op mix and the arrival schedule")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (a third of the window each untraced, traced and as the saturated closed loop, then a short ladder)")
	rate := fs.Int("rate", 0, "override the open loop's arrival rate (ops/s) for a manual sweep")
	callers := fs.Int("callers", 0, "run the window as the workload's closed loop with this many callers: a manual saturation run")
	out := fs.String("out", "", "append the run's full record to this file as one JSON line")
	spans := fs.String("spans", "", "write the benchmark's span of every client call (of the traced third with --trace 1) to this file when the run ends")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if *rate < 0 || *callers < 0 || (*rate > 0 && *callers > 0) {
		return fmt.Errorf("--rate and --callers are positive and exclude each other")
	}
	if *rate > 0 {
		w.Rate = *rate
	}
	if *callers > 0 {
		w.Callers = *callers
	}
	deploy.RegisterWire()
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, setups: setupsPerRun, warmup: warmupTime, handles: runtime.NumCPU(), closed: *callers > 0, ladder: 150 * time.Millisecond, spans: *spans}

	rec := record{
		Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Env: environment(), Params: parameters(cfg),
	}
	var defs []metricDef
	var err error
	if *trace == 0 {
		defs = endToEnd
		err = runEndToEnd(cfg, &rec)
	} else {
		defs = perLayer
		err = runPerLayer(cfg, &rec)
	}
	if err != nil {
		return err
	}
	rec.Correct = len(rec.Violations) == 0
	printReport(os.Stdout, rec)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}

	// The contract's last line: exactly these keys, and exactly the metrics
	// of the list this mode reports.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
	for name, m := range rec.Metrics.complete(defs) {
		final.Metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return fmt.Errorf("output check failed: %d violation(s)", len(rec.Violations))
	}
	return nil
}

// runPhase sets a cluster up, runs one window against it and tears it down.
// A zero window measures the set-up alone.
func runPhase(cfg runConfig, traced bool) (phaseResult, error) {
	start := time.Now()
	cl, err := boot(cfg.w.spec(cfg.handles), traced)
	if err != nil {
		return phaseResult{}, err
	}
	defer func() {
		cl.stop()
		runtime.GC() // the next phase starts from a collected heap
	}()
	e := newEnv(cfg, cl, start)
	if err := e.setUp(); err != nil {
		return phaseResult{}, err
	}
	e.run()
	setup := e.t0.Sub(start).Seconds()
	if cfg.seconds == 0 {
		return phaseResult{SetupS: setup}, nil
	}
	res, err := e.analyze()
	res.SetupS = setup
	if err == nil && cfg.spans != "" {
		err = e.writeSpans(cfg.spans)
	}
	return res, err
}

func (r *record) fold(res phaseResult) {
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	r.Violations = append(r.Violations, res.Check.Violations...)
	r.Notes = append(r.Notes, res.Notes...)
	if r.Metrics == nil {
		r.Metrics = metricSet{}
	}
	for name, m := range res.Metrics {
		r.Metrics[name] = m
	}
}

// runEndToEnd is --trace 0: the cluster is set up cfg.setups times, the
// last of which goes on into the measured window, tracing off throughout.
func runEndToEnd(cfg runConfig, rec *record) error {
	var setups []float64
	only := cfg
	only.seconds = 0
	for i := 1; i < cfg.setups; i++ {
		res, err := runPhase(only, false)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, res.SetupS)
	}
	res, err := runPhase(cfg, false)
	if err != nil {
		return err
	}
	rec.fold(res)
	setups = append(setups, res.SetupS)
	rec.Metrics.set("setup_s", median(setups), len(setups))
	return nil
}

// runPerLayer is --trace 1: a third of the window untraced, for the counters
// of every layer under the load the end-to-end metrics are taken at; a third
// traced, for the stage times and, against the first third, what tracing
// costs; a third as the workload's closed loop, for what the cluster does
// when saturated; then a short ladder.
func runPerLayer(cfg runConfig, rec *record) error {
	cfg.seconds /= 3
	untraced := cfg
	untraced.spans = ""
	plain, err := runPhase(untraced, false)
	if err != nil {
		return err
	}
	traced, err := runPhase(cfg, true)
	if err != nil {
		return fmt.Errorf("traced third: %w", err)
	}
	untraced.closed = true
	closed, err := runPhase(untraced, false)
	if err != nil {
		return fmt.Errorf("closed-loop third: %w", err)
	}
	cpuPerOp := func(r phaseResult) float64 { return r.Metrics["cpu_us_per_op"].Value }
	ops, cpu := closed.Metrics["ops_s"], cpuPerOp(closed)
	closed.Metrics = metricSet{}
	closed.Metrics.set("closed.ops_s", ops.Value, ops.N)
	closed.Metrics.set("closed.cpu_us_per_op", cpu, ops.N)
	rec.fold(closed)
	rec.fold(traced)
	rec.fold(plain) // where both thirds report a metric, the untraced one stands
	m := rec.Metrics
	// The open loop pins the rate, so tracing shows as CPU spent per op.
	m.set("trace.overhead_frac", ratio(cpuPerOp(traced), cpuPerOp(plain))-1, 0)
	ladder, err := runLadder(cfg.ladder, nil)
	if err != nil {
		return err
	}
	for name, v := range ladder {
		m[name] = v
	}
	return nil
}

func cmdLadder(args []string) error {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	benchtime := fs.Duration("benchtime", time.Second, "time each rung runs")
	out := fs.String("out", "", "append the ladder's record to this file as one JSON line")
	if err := fs.Parse(args); err != nil {
		return err
	}
	deploy.RegisterWire()
	fmt.Printf("%-40s %14s %12s %12s %10s\n", "rung", "per call", "allocs/op", "bytes/op", "calls")
	m, err := runLadder(*benchtime, func(r rung, res testing.BenchmarkResult) {
		unit := "ns"
		if r.Div != 1 {
			unit = "us"
		}
		fmt.Printf("%-40s %11.2f %s %12d %12d %10d\n", r.Name, float64(res.T.Nanoseconds())/float64(res.N)/r.Div, unit,
			res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	})
	if err != nil {
		return err
	}
	if *out != "" {
		return appendRecord(*out, record{Workload: "ladder", Env: environment(), Correct: true, Metrics: m})
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func appendRecord(path string, rec record) error {
	// Units are filled from the catalogue for whatever the run reported.
	filled := metricSet{}
	for _, d := range catalogue() {
		if m, ok := rec.Metrics[d.Name]; ok {
			m.Unit = d.Unit
			filled[d.Name] = m
		}
	}
	rec.Metrics = filled
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// environment records where the numbers were taken.
func environment() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"git":        gitRevision(),
	}
}

// gitRevision reads the checked-out commit from .git without running git;
// an exported tree has none.
func gitRevision() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; ; dir = filepath.Dir(dir) {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if !strings.HasPrefix(ref, "ref: ") {
				return ref
			}
			if rev, err := os.ReadFile(filepath.Join(dir, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				return strings.TrimSpace(string(rev))
			}
			return ref
		}
		if dir == filepath.Dir(dir) {
			return "unknown"
		}
	}
}

func parameters(cfg runConfig) map[string]string {
	w := cfg.w
	loop := fmt.Sprintf("open, %d ops/s on %v-%v ticks, timed from due time", w.Rate, minTick, maxTick)
	if cfg.closed {
		loop = fmt.Sprintf("closed, %d callers", w.Callers)
	}
	topo := "1 region, 1 shard x 3 replicas, 1 sequencer"
	if w.Tree {
		topo = "master region 0 with leaf regions 1 and 2, 1 shard x 3 replicas under each leaf, 3 sequencers"
	}
	return map[string]string{
		"loop":     loop,
		"topology": topo,
		"record":   fmt.Sprintf("%d B, reads %d%%, multi-color appends %d%%, preload %d records, trim window %d records", w.RecordBytes, w.ReadPercent, w.MultiPercent, w.Preload, w.TrimWindow),
		"replica":  fmt.Sprintf("replica.DefaultConfig + PM %d x %d MiB, cache %d MiB, PM budget %d MiB, group commit, order coalescing, read hold %v, heartbeat %v", pmSegments, pmSegmentBytes>>20, cacheBytes>>20, w.PMBudgetMB, readHold, heartbeat),
		"seq":      fmt.Sprintf("batch interval 1us, %d order workers, pipelined flush", seqOrderWorkers),
		"client":   fmt.Sprintf("%d handles, core.DefaultBatchConfig (64 records / 100us linger / 4 in flight), timeout %v", cfg.handles, clientTimeout),
		"latency":  "simclock off, pmem.Zero/ssd.Zero: no device or link delay is injected; times are this host's CPU and loopback syscall cost",
		"warmup":   fmt.Sprintf("%v of the same loop, %d set-ups", cfg.warmup, cfg.setups),
	}
}

func printReport(out io.Writer, rec record) {
	fmt.Fprintf(out, "workload %s  seed %d  window %.1f s  trace %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, group := range []map[string]string{rec.Env, rec.Params} {
		keys := make([]string, 0, len(group))
		for k := range group {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %-10s %s\n", k, group[k])
		}
	}
	fmt.Fprintf(out, "attempted %d  failed %d  correct %v\n", rec.Attempted, rec.Failed, len(rec.Violations) == 0)
	for _, v := range rec.Violations {
		fmt.Fprintf(out, "  VIOLATION %s\n", v)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, d := range catalogue() {
		m, ok := rec.Metrics[d.Name]
		if !ok {
			continue
		}
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(out, "  %-42s %16.4f %-6s %s\n", d.Name, m.Value, d.Unit, samples)
	}
}
