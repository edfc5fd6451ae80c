package core

import (
	"reflect"
	"testing"
	"time"

	"flexlog/internal/deploy"
	"flexlog/internal/obs"
	"flexlog/internal/qos"
	"flexlog/internal/types"
)

// TestClusterBuildsNodesLikeADeployment pins the one definition of a node.
// The three profiles hold the figures the test, bench and deployed configs
// were written as before they became profiles. Under each, every replica
// and sequencer the in-process cluster starts — region leaders, backups, a
// spare outside the membership and a restarted sequencer — carries exactly
// the configuration deploy's builders return for its role, plus only the
// in-process extras: Obs, TraceSlow and the restart's epoch.
func TestClusterBuildsNodesLikeADeployment(t *testing.T) {
	const ms = time.Millisecond
	profiles := []struct {
		name      string
		got, want deploy.Profile
	}{
		{"test", deploy.Test(), deploy.Profile{
			Heartbeat: 3 * ms, FailureTimeout: 60 * ms, ReplicaRetry: 30 * ms, SequencerRetry: 30 * ms,
			ReadHold: 5 * ms, ReadWorkers: 4, WriteWorkers: 4, OrderWorkers: 4,
		}},
		{"bench", deploy.Bench(), deploy.Profile{
			Heartbeat: 10 * ms, FailureTimeout: 100 * ms, ReplicaRetry: 200 * ms, SequencerRetry: 200 * ms,
			ReadHold: ms, ReadWorkers: 16, WriteWorkers: 16, OrderWorkers: 16,
		}},
		{"deployed", deploy.Deployed(), deploy.Profile{
			Heartbeat: 100 * ms, FailureTimeout: time.Second, ReplicaRetry: time.Second, SequencerRetry: 2 * time.Second,
			ReadHold: ms, ReadWorkers: 4, WriteWorkers: 4, OrderWorkers: 4,
		}},
	}
	for _, p := range profiles {
		if p.got != p.want {
			t.Errorf("%s profile = %+v, want %+v", p.name, p.got, p.want)
		}
	}
	if TestClusterConfig().Profile != deploy.Test() || BenchClusterConfig().Profile != deploy.Bench() {
		t.Error("TestClusterConfig/BenchClusterConfig do not carry the test/bench profiles")
	}

	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			cfg := TestClusterConfig()
			cfg.Profile = p.got
			cfg.Tenants = []qos.TenantConfig{{ID: 1, Weight: 2, Colors: []types.ColorID{1}}}
			cfg.Obs = obs.NewRegistry()
			cfg.TraceSlow = 7 * ms
			cl, err := TreeCluster(cfg, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Stop)
			if _, err := cl.AddShard(types.MasterColor); err != nil {
				t.Fatal(err)
			}
			topo := cl.Topology()
			shards := topo.ShardsInRegion(types.MasterColor)
			spare, err := cl.SpawnReplica(shards[0].ID)
			if err != nil {
				t.Fatal(err)
			}
			si, err := topo.Sequencer(1)
			if err != nil {
				t.Fatal(err)
			}
			restarted := si.Members[len(si.Members)-1]
			restartEpoch := cl.Sequencer(restarted).Epoch()
			if err := cl.RestartSequencer(restarted); err != nil {
				t.Fatal(err)
			}

			replicaRoles := map[types.NodeID]deploy.Role{spare: {ID: spare, Kind: "replica", Shard: shards[0].ID}}
			for _, sh := range shards {
				for _, id := range sh.Replicas {
					replicaRoles[id] = deploy.Role{ID: id, Kind: "replica", Shard: sh.ID}
				}
			}
			seqRoles := map[types.NodeID]deploy.Role{}
			for _, color := range topo.Colors() {
				si, err := topo.Sequencer(color)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range si.Members {
					seqRoles[id] = deploy.Role{ID: id, Kind: "sequencer", Region: color, Leader: id == si.Leader}
				}
			}
			if len(cl.replicas) != 7 || len(replicaRoles) != 7 || len(cl.seqs) != 6 || len(seqRoles) != 6 {
				t.Fatalf("cluster runs %d replicas and %d sequencers for %d and %d roles, want 7 and 6",
					len(cl.replicas), len(cl.seqs), len(replicaRoles), len(seqRoles))
			}

			for id, r := range cl.replicas {
				want := deploy.ReplicaConfig(p.got, replicaRoles[id], topo, cfg.Storage, cfg.Tenants)
				want.Obs, want.TraceSlow = cfg.Obs, cfg.TraceSlow
				if got := r.Config(); !reflect.DeepEqual(got, want) {
					t.Errorf("replica %v config\n got %+v\nwant %+v", id, got, want)
				}
			}
			for id, s := range cl.seqs {
				want := deploy.SequencerConfig(p.got, seqRoles[id], topo, cfg.Tenants)
				if id == restarted {
					want.StartAsLeader, want.InitialEpoch = false, restartEpoch
				}
				if got := s.Config(); !reflect.DeepEqual(got, want) {
					t.Errorf("sequencer %v config\n got %+v\nwant %+v", id, got, want)
				}
			}
		})
	}
}
