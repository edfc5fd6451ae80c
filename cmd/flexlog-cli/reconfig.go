package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flexlog/internal/ctrlplane"
	"flexlog/internal/deploy"
	"flexlog/internal/proto"
	"flexlog/internal/replica"
	"flexlog/internal/topology"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

// command runs one control round trip and prints the node's answer.
func command(ctrl *ctrlplane.Controller, node types.NodeID, op uint8, donor types.NodeID, timeout time.Duration) {
	ack, err := ctrl.Command(node, op, donor, timeout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d: ok mode=%s lag=%d topology-version=%d\n",
		ack.From, replica.Mode(ack.Mode), ack.Lag, ack.Version)
}

// runPlan runs one of the controller's plans to its terminal state,
// printing the plan line — the one /debug/topology's history shows —
// whenever its state or progress figure changes.
func runPlan(ctrl *ctrlplane.Controller, poll time.Duration, run func() (ctrlplane.Plan, error)) ctrlplane.Plan {
	last := ""
	show := func() {
		for _, p := range ctrl.Plans() {
			if line := p.String(); line != last {
				fmt.Println(line)
				last = line
			}
		}
	}
	var (
		plan ctrlplane.Plan
		err  error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		plan, err = run()
	}()
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			show()
		case <-done:
			show()
			if err != nil {
				log.Fatalf("plan %d %s: %v", plan.ID, plan.State, err)
			}
			return plan
		}
	}
}

// runReconfig dispatches the `reconfig` subcommand family. status, join,
// promote, drain and push-topo are one control round trip each;
// add-replica and remove-replica run the controller's AddReplica and
// DrainReplica plans (DESIGN.md §15) — the ones the in-process clusters
// run — over a ctrlplane.Static: the replica added is the manifest's
// spare, already running, and stopping a drained one is left to the
// operator. The OPERATIONS.md "Reconfiguration runbook" walks through both.
func runReconfig(m *deploy.Manifest, topo *topology.Topology, book *transport.AddressBook, id types.NodeID, timeout time.Duration, args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: flexlog-cli ... reconfig <status|join|promote|drain|push-topo|add-replica|remove-replica> [flags]")
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]
	sub := flag.NewFlagSet("reconfig "+cmd, flag.ExitOnError)
	node := sub.Uint("node", 0, "target node id")
	donor := sub.Uint("donor", 0, "donor node id (join; add-replica, where 0 picks the shard's first operational member)")
	lag := sub.Uint64("lag", 256, "promotion lag threshold in records (add-replica)")
	version := sub.Uint64("version", 0, "override the pushed topology version (push-topo); 0 keeps the manifest's")
	poll := sub.Duration("poll", 200*time.Millisecond, "status poll interval (add-replica, remove-replica)")
	if err := sub.Parse(rest); err != nil {
		log.Fatal(err)
	}
	if *node == 0 {
		log.Fatal("reconfig: -node is required")
	}
	target := types.NodeID(*node)

	static := &ctrlplane.Static{Topo: topo, Dial: func(h transport.Handler) (transport.Endpoint, error) {
		return transport.ListenTCP(id, book, h)
	}}
	// -timeout bounds every wait of a plan: a catch-up that stops making
	// progress, the promotion sync-phase, a drain's flush.
	ctrl := ctrlplane.New(static, ctrlplane.Config{
		PollInterval:    *poll,
		PromoteLag:      *lag,
		CatchupTimeout:  timeout,
		ConvergeTimeout: timeout,
		DrainTimeout:    timeout,
	})
	defer ctrl.Close()

	switch cmd {
	case "status":
		command(ctrl, target, proto.CtrlOpStatus, 0, timeout)
	case "join":
		if *donor == 0 {
			log.Fatal("reconfig join: -donor is required")
		}
		command(ctrl, target, proto.CtrlOpJoin, types.NodeID(*donor), timeout)
	case "promote":
		command(ctrl, target, proto.CtrlOpPromote, 0, timeout)
	case "drain":
		command(ctrl, target, proto.CtrlOpDrain, 0, timeout)
	case "push-topo":
		topo.RaiseVersion(*version)
		ack, err := ctrl.PushTopology(target, timeout)
		if err != nil {
			log.Fatalf("%v — stale snapshots are fenced; bump -version past the node's", err)
		}
		fmt.Printf("node %d now at topology version %d\n", target, ack.Version)
	case "add-replica":
		role := m.RoleOf(target)
		if role.Kind != "replica" {
			log.Fatalf("node %d has no replica role in the manifest — declare it under \"spares\"", target)
		}
		static.Spares = map[types.ShardID]types.NodeID{role.Shard: target}
		plan := runPlan(ctrl, *poll, func() (ctrlplane.Plan, error) {
			return ctrl.AddReplicaFrom(role.Shard, types.NodeID(*donor))
		})
		fmt.Printf("node %d operational in shard %d at topology version %d\n", plan.Node, plan.Shard, topo.Version())
		fmt.Println("next: move the node from \"spares\" into the shard's replica list in the manifest (see OPERATIONS.md)")
	case "remove-replica":
		sh, ok := topo.ShardOfReplica(target)
		if !ok {
			log.Fatalf("node %d is not a member of any shard", target)
		}
		plan := runPlan(ctrl, *poll, func() (ctrlplane.Plan, error) { return ctrl.DrainReplica(sh.ID, target) })
		fmt.Printf("node %d drained out of shard %d at topology version %d\n", plan.Node, plan.Shard, topo.Version())
		fmt.Println("next: stop the process and delete the node from the shard's replica list in the manifest (see OPERATIONS.md)")
	default:
		fmt.Fprintf(os.Stderr, "unknown reconfig command %q\n", cmd)
		os.Exit(2)
	}
}
