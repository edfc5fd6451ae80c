// Command flexlog-server runs one FlexLog node — a storage replica or a
// sequencer — over TCP, as declared by a cluster manifest (see package
// deploy for the format, and -example to print a starter manifest).
//
// Usage:
//
//	flexlog-server -example > cluster.json
//	flexlog-server -config cluster.json -id 1      # replica (per manifest)
//	flexlog-server -config cluster.json -id 900    # sequencer leader
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"flexlog/internal/deploy"
	"flexlog/internal/durable"
	"flexlog/internal/obs"
	"flexlog/internal/pmem"
	"flexlog/internal/replica"
	"flexlog/internal/seq"
	"flexlog/internal/ssd"
	"flexlog/internal/storage"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

func main() {
	config := flag.String("config", "", "cluster manifest (JSON)")
	id := flag.Uint("id", 0, "this node's id in the manifest")
	example := flag.Bool("example", false, "print an example manifest and exit")
	segMB := flag.Int("pm-segment-mb", 4, "PM segment size (MiB)")
	segments := flag.Int("pm-segments", 16, "PM segment slots")
	cacheMB := flag.Int("cache-mb", 16, "DRAM cache size (MiB)")
	pmBudgetMB := flag.Int("pm-budget-mb", 0, "PM budget for log segments (MiB); past it the lifecycle evicts cold segments to SSD (0 = no background eviction)")
	ckptEvery := flag.Int("checkpoint-every", 0, "write a recovery checkpoint every N flushed entries (0 = no checkpoints)")
	dataDir := flag.String("data-dir", "", "directory for device snapshots; empty = volatile (replicas only)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/traces, /debug/lanes, /debug/pprof on this address (e.g. :8080); empty disables observability")
	seqWorkers := flag.Int("seq-workers", deploy.Deployed().OrderWorkers, "sequencer order-lane workers (per-color FIFO; 0 = serialized delivery loop)")
	autoscale := flag.Bool("autoscale", false, "run the advisory autoscaler: poll this node's metrics against the default policy thresholds and log the reconfiguration it would issue (requires -debug-addr); execute advice with flexlog-cli reconfig")
	flag.Parse()

	if *example {
		raw, err := json.MarshalIndent(deploy.Example(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(raw))
		return
	}
	if *config == "" || *id == 0 {
		fmt.Fprintln(os.Stderr, "usage: flexlog-server -config cluster.json -id N   (or -example)")
		os.Exit(2)
	}
	m, err := deploy.Load(*config)
	if err != nil {
		log.Fatal(err)
	}
	topo, err := m.Topology()
	if err != nil {
		log.Fatal(err)
	}
	book := m.AddressBook()
	nodeID := types.NodeID(*id)
	role := m.RoleOf(nodeID)
	profile := deploy.Deployed()
	profile.OrderWorkers = *seqWorkers

	// One registry per process; the node's components publish into it and
	// the debug server scrapes it. Nil (observability off) when -debug-addr
	// is not given — instrumentation then no-ops on nil receivers.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterProcess(reg)
	}

	attach := func(h transport.Handler) (transport.Endpoint, error) {
		ep, err := transport.ListenTCP(nodeID, book, h)
		if err != nil {
			return nil, err
		}
		ep.PublishObs(reg)
		return ep, nil
	}

	switch role.Kind {
	case "replica":
		cfg := deploy.ReplicaConfig(profile, role, topo, storage.Config{
			SegmentSize: uint64(*segMB) << 20,
			NumSegments: *segments,
			CacheBytes:  *cacheMB << 20,
			PMModel:     storage.DefaultConfig().PMModel,
			SSDModel:    storage.DefaultConfig().SSDModel,

			// Storage lifecycle (DESIGN.md §11): PM→SSD eviction under a
			// budget, and checkpoints that bound recovery replay.
			PMBudget:        uint64(*pmBudgetMB) << 20,
			CheckpointEvery: *ckptEvery,
		}, m.Tenants)
		cfg.Obs = reg

		// Device snapshots make the simulated PM/SSD survive process
		// restarts (standing in for reopening a PMDK pool file).
		if *dataDir != "" {
			pmPath := filepath.Join(*dataDir, fmt.Sprintf("node-%d.pmem", nodeID))
			ssdPath := filepath.Join(*dataDir, fmt.Sprintf("node-%d.ssd", nodeID))
			cfg.StoreFactory = func(scfg storage.Config) (*storage.Store, error) {
				pool, errPM := pmem.LoadFrom(pmPath, scfg.PMModel)
				if errPM != nil {
					if !os.IsNotExist(errPM) {
						return nil, errPM
					}
					return storage.Open(scfg) // first boot
				}
				dev, errSSD := ssd.LoadFrom(ssdPath, scfg.SSDModel)
				if errSSD != nil {
					if !os.IsNotExist(errSSD) {
						return nil, errSSD
					}
					dev = ssd.New(scfg.SSDModel)
				}
				log.Printf("restored device snapshots from %s", *dataDir)
				return storage.Open(scfg,
					storage.WithPMTier(pool),
					storage.WithSSDTier(dev),
					storage.WithAttach())
			}
			_ = os.MkdirAll(*dataDir, 0o755)
		}

		r, err := replica.NewWithEndpoint(cfg, attach)
		if err != nil {
			log.Fatal(err)
		}
		if reg != nil {
			startDebugServer(*debugAddr, obs.MuxConfig{
				Registry: reg,
				Tracers:  r.Tracers(),
				Lanes:    r.LaneSnapshots,
				Extra:    startCtrlPlane(topo, r, reg, *autoscale),
			})
		} else if *autoscale {
			log.Fatal("-autoscale requires -debug-addr (the autoscaler polls this node's metrics registry)")
		}
		leaf := types.MasterColor
		if sh, err := topo.Shard(role.Shard); err == nil {
			leaf = sh.Leaf
		}
		log.Printf("replica %v serving shard %v (leaf %v)", nodeID, role.Shard, leaf)
		waitForSignal()
		r.Stop()
		if *dataDir != "" {
			pmPath := filepath.Join(*dataDir, fmt.Sprintf("node-%d.pmem", nodeID))
			ssdPath := filepath.Join(*dataDir, fmt.Sprintf("node-%d.ssd", nodeID))
			if err := r.Store().SaveDevices(pmPath, ssdPath); err != nil {
				log.Printf("saving device snapshots: %v", err)
			} else {
				log.Printf("device snapshots saved to %s", *dataDir)
			}
		}
	case "sequencer":
		cfg := deploy.SequencerConfig(profile, role, topo, m.Tenants)
		// Durable epochs: a cold restart must resume ABOVE every epoch the
		// previous incarnation could have used, or SNs would repeat.
		var epochPath string
		if *dataDir != "" {
			_ = os.MkdirAll(*dataDir, 0o755)
			epochPath = filepath.Join(*dataDir, fmt.Sprintf("node-%d.epoch", nodeID))
			cfg.InitialEpoch = loadEpoch(epochPath) + 1
			if err := saveEpoch(epochPath, cfg.InitialEpoch); err != nil {
				log.Fatalf("persisting epoch: %v", err)
			}
		}
		s, err := seq.NewWithEndpoint(cfg, attach)
		if err != nil {
			log.Fatal(err)
		}
		s.PublishObs(reg)
		if reg != nil {
			startDebugServer(*debugAddr, obs.MuxConfig{
				Registry: reg,
				Lanes:    s.LaneSnapshots,
				Extra:    startCtrlPlane(topo, nil, reg, *autoscale),
			})
		} else if *autoscale {
			log.Fatal("-autoscale requires -debug-addr (the autoscaler polls this node's metrics registry)")
		}
		log.Printf("sequencer %v for region %v (leader=%v, epoch=%d)", nodeID, role.Region, cfg.StartAsLeader, s.Epoch())
		if epochPath != "" {
			// Track epoch advances (failovers) so the next cold start
			// resumes above them.
			go func() {
				for range time.Tick(time.Second) {
					if err := saveEpoch(epochPath, s.Epoch()); err != nil {
						log.Printf("persisting epoch: %v", err)
					}
				}
			}()
		}
		waitForSignal()
		if epochPath != "" {
			if err := saveEpoch(epochPath, s.Epoch()); err != nil {
				log.Printf("persisting epoch: %v", err)
			}
		}
		s.Stop()
	default:
		log.Fatalf("node %v has no role in the manifest", nodeID)
	}
}

// startDebugServer mounts the observability endpoints; failure to bind is
// fatal — an operator who asked for -debug-addr wants to know.
func startDebugServer(addr string, cfg obs.MuxConfig) {
	_, bound, err := obs.Serve(addr, cfg)
	if err != nil {
		log.Fatalf("debug server: %v", err)
	}
	log.Printf("debug server on http://%s (/metrics /debug/traces /debug/lanes /debug/pprof)", bound)
}

// loadEpoch reads the persisted epoch (0 when absent).
func loadEpoch(path string) types.Epoch {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	var e uint32
	fmt.Sscanf(string(raw), "%d", &e)
	return types.Epoch(e)
}

// saveEpoch persists the epoch durably: a cold restart after a power loss
// must never find the file empty and resume at epoch 1, re-issuing SNs.
func saveEpoch(path string, e types.Epoch) error {
	return durable.WriteFile(path, fmt.Appendf(nil, "%d\n", uint32(e)), 0o644)
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Println("shutting down")
}
