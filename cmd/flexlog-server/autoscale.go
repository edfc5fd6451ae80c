package main

import (
	"context"
	"log"
	"net/http"
	"time"

	"flexlog/internal/ctrlplane"
	"flexlog/internal/obs"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
)

// startCtrlPlane wires the operator surface of a server process: mounts
// /debug/topology on the debug mux and, when autoscale is set, runs the
// autoscaler in Advisory mode — it polls this node's registry against
// advisePendingOrders and LOGS the reconfiguration it would issue
// (split-shard / add-replica, with the reason) instead of executing it.
// The operator acts on the advice with flexlog-cli reconfig: one server
// process cannot change the cluster's membership, so its controller runs
// over a ctrlplane.Static with no endpoint and a mis-wired mutating call
// gets the typed ErrStaticDeployment instead of a silent no-op.
func startCtrlPlane(topo *topology.Topology, local *replica.Replica, reg *obs.Registry, autoscale bool) map[string]http.Handler {
	ctrl := ctrlplane.New(&ctrlplane.Static{Topo: topo, Local: local}, ctrlplane.Config{Obs: reg})
	if autoscale {
		as := newAdvisor(ctrl, reg)
		as.Start(context.Background())
		go logAdvice(as)
		log.Printf("advisory autoscaler on (polling local metrics every 1s; advice is logged, not executed)")
	}
	return map[string]http.Handler{"/debug/topology": ctrlplane.TopologyHandler(ctrl)}
}

// advisePendingOrders is the order backlog (flexlog_replica_pending_orders)
// above which the advisor calls a shard write-saturated (OPERATIONS.md
// §6.5). The split and replica caps and the 30 s cooldown are the
// autoscaler's constants.
const advisePendingOrders = 1024

// newAdvisor builds the server's advisory autoscaler, polling every second.
func newAdvisor(ctrl *ctrlplane.Controller, reg *obs.Registry) *ctrlplane.Autoscaler {
	return ctrlplane.NewAutoscaler(ctrl, reg, ctrlplane.Policy{MaxPendingOrders: advisePendingOrders, Advisory: true}, time.Second)
}

// logAdvice tails the autoscaler's advice ring and logs each new entry.
func logAdvice(as *ctrlplane.Autoscaler) {
	seen := 0
	for range time.Tick(time.Second) {
		advice := as.Advice()
		for ; seen < len(advice); seen++ {
			a := advice[seen]
			log.Printf("autoscale advice: %s (shard=%d leaf=%d): %s — run the matching flexlog-cli reconfig / see OPERATIONS.md",
				a.Kind, a.Shard, a.Leaf, a.Reason)
		}
	}
}
