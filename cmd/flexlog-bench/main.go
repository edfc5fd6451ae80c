// Command flexlog-bench regenerates the tables and figures of the FlexLog
// paper's evaluation (§9).
//
// Usage:
//
//	flexlog-bench -list
//	flexlog-bench [-quick] [-chaos] [-duration 2s] [-cpuprofile f] [-memprofile f] [-blockprofile f] [-mutexprofile f] <experiment-id>... | all
//
// Experiment ids: table1, fig1, fig4lat, fig4thr, fig5, fig6, fig7, fig8,
// fig9, fig10, fig11, ablate-batch, ablate-cache, ablate-readhold,
// ablate-clientbatch, ablate-readpath, ablate-writepath, ablate-tiering,
// ablate-obs, ablate-qos, ablate-seq, ablate-reconfig, ext-burst, chaos
// (also runnable via -chaos).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"flexlog/internal/bench"
	"flexlog/internal/obs"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	chaosRun := flag.Bool("chaos", false, "run the seeded chaos soak (availability per nemesis); shorthand for the 'chaos' experiment id")
	quick := flag.Bool("quick", false, "shrink sweeps and durations (CI mode)")
	duration := flag.Duration("duration", 0, "measurement window per point (0 = default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the experiment runs to this file")
	blockprofile := flag.String("blockprofile", "", "write a blocking profile (lock/channel contention) of the experiment runs to this file")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex-contention profile (who held locks others waited on) of the experiment runs to this file")
	metricsDump := flag.String("metrics-dump", "", "wire the obs-aware experiments into a registry and write its Prometheus snapshot to this file on exit (\"-\" for stdout)")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if *chaosRun {
		args = append(args, "chaos")
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: flexlog-bench [-quick] [-chaos] <experiment-id>... | all   (see -list)")
		os.Exit(2)
	}

	var ids []string
	if len(args) == 1 && args[0] == "all" {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = args
	}

	rcfg := bench.RunConfig{Quick: *quick, Duration: *duration}
	var reg *obs.Registry
	if *metricsDump != "" {
		reg = obs.NewRegistry()
		rcfg.Obs = reg
	}

	// run is a separate function so the profiling defers fire before the
	// process exits with the failure count.
	failed := run(ids, rcfg, *cpuprofile, *memprofile, *blockprofile, *mutexprofile)
	if reg != nil {
		if err := dumpMetrics(*metricsDump, reg); err != nil {
			fmt.Fprintf(os.Stderr, "metrics-dump: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// dumpMetrics writes the registry snapshot to path ("-" = stdout).
func dumpMetrics(path string, reg *obs.Registry) error {
	if path == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return reg.WritePrometheus(f)
}

func run(ids []string, cfg bench.RunConfig, cpuprofile, memprofile, blockprofile, mutexprofile string) int {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if blockprofile != "" {
		// Sample every blocking event: the write path's interesting costs
		// are lock waits (store index/allocator locks) and channel waits
		// (lane queues, commit windows), both invisible to the CPU profile.
		runtime.SetBlockProfileRate(1)
		defer func() {
			f, err := os.Create(blockprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("block").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "blockprofile: %v\n", err)
			}
		}()
	}
	if mutexprofile != "" {
		// Record every contended mutex: the sequencer hot path claims to be
		// lock-free, and this profile is the direct before/after evidence —
		// a contended seq.(*Sequencer) mutex here means the claim regressed.
		runtime.SetMutexProfileFraction(1)
		defer func() {
			f, err := os.Create(mutexprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "mutexprofile: %v\n", err)
			}
		}()
	}
	defer func() {
		if memprofile == "" {
			return
		}
		f, err := os.Create(memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // report live allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}()

	failed := 0
	for _, id := range ids {
		e, ok := bench.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (see -list)\n", id)
			failed++
			continue
		}
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			failed++
			continue
		}
		fmt.Println(rep)
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return failed
}
