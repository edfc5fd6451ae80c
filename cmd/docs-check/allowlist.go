package main

// allowlist names the exported identifiers under internal/ that stay
// without a non-test caller in the module, each with the one reason it
// stays: the paper's API, a surface an operator reaches through
// flexlog-server or flexlog-cli, a test seam another package's tests read,
// or a test-support entry point. An entry that names a used or an
// undeclared identifier fails -deadcode, so the list cannot outlive its
// reasons.
var allowlist = map[string]string{
	"internal/core.Client.SubscribeChan":        "paper API: Listing 1's channel subscribe",
	"internal/queue.MessageQueue.Lookup":        "paper API: Listing 1's getIdx",
	"internal/bench.Report.Value":               "test seam: the root benchmark suite reads an experiment's points by series and label",
	"internal/combine.Queue.Len":                "test seam: storage's and replica's write-path tests wait on a held queue",
	"internal/paxos.Counter.Stats":              "test seam: scalog's tests read the proposer's preemptions (§3.3)",
	"internal/pmem.Pool.Snapshot":               "test seam: storage's crash tests compare raw arena images",
	"internal/replica.Replica.Config":           "test seam: core's tests compare every node's config with the deploy builders'",
	"internal/seq.Sequencer.Config":             "test seam: core's tests compare every node's config with the deploy builders'",
	"internal/transport.Network.SetLinkFaults":  "test seam: seq's and core's tests make one link lossy",
	"internal/transport.Network.FaultStats":     "test seam: core's, seq's and ctrlplane's tests check that faults were injected",
	"internal/chaos.Generate":                   "test support: the chaos soak's seeded nemesis schedule (make chaos-smoke)",
	"internal/chaos.GenConfig.Duration":         "test support: bounds the chaos soak's schedule",
	"internal/chaos.GenConfig.Replicas":         "test support: bounds the chaos soak's schedule",
	"internal/chaos.GenConfig.Colors":           "test support: bounds the chaos soak's schedule",
	"internal/chaos.GenConfig.Aggressor":        "test support: the chaos soak's noisy-neighbor tenant",
	"internal/chaos.GenConfig.Reconfig":         "test support: adds the chaos soak's reconfiguration nemeses",
	"internal/chaos.Engine.SetController":       "test support: arms the chaos soak's reconfiguration nemeses",
	"internal/chaos.Engine.Applied":             "test support: the chaos soak's replay log on failure",
	"internal/chaos.WorkloadConfig.Trims":       "test support: the chaos soak's trimmers",
	"internal/chaos.WorkloadConfig.Multi":       "test support: the chaos soak's multi-color appender",
	"internal/chaos.WorkloadConfig.MultiBroker": "test support: the chaos soak's multi-append broker region",
}
