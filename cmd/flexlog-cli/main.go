// Command flexlog-cli issues FlexLog API calls (Table 2) and control-plane
// operations (DESIGN.md §15) against a running TCP deployment.
//
// Usage:
//
//	flexlog-cli -config cluster.json -id 500 append -color 0 -data "hello"
//	flexlog-cli -config cluster.json -id 500 read   -color 0 -sn 4294967297
//	flexlog-cli -config cluster.json -id 500 subscribe -color 0
//	flexlog-cli -config cluster.json -id 500 trim   -color 0 -sn 4294967297
//
// Reconfiguration (see the OPERATIONS.md runbook for full walkthroughs):
//
//	flexlog-cli -config cluster.json -id 500 reconfig status -node 1
//	flexlog-cli -config cluster.json -id 500 reconfig add-replica -node 4 -donor 1
//	flexlog-cli -config cluster.json -id 500 reconfig drain -node 3
//	flexlog-cli -config cluster.json -id 500 reconfig push-topo -node 1 -version 9
//
// The id must be a node declared in the manifest that no server uses (a
// client slot).
package main

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/deploy"
	"flexlog/internal/transport"
	"flexlog/internal/types"
)

func main() {
	config := flag.String("config", "", "cluster manifest (JSON)")
	id := flag.Uint("id", 0, "client node id from the manifest")
	timeout := flag.Duration("timeout", 10*time.Second, "operation timeout")
	flag.Parse()

	args := flag.Args()
	if *config == "" || *id == 0 || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: flexlog-cli -config cluster.json -id N <append|read|subscribe|trim> [flags]")
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

	if args[0] == "reconfig" {
		runReconfig(m, topo, book, nodeID, *timeout, args[1:])
		return
	}

	// Every CLI invocation is a fresh "function instance": its FID must be
	// distinct from every other instance that ever appended (Alg. 1 line 6
	// dedupes by token = FID<<32|counter), so derive it randomly rather
	// than from the reusable transport id.
	var fidBytes [4]byte
	if _, err := cryptorand.Read(fidBytes[:]); err != nil {
		log.Fatal(err)
	}
	fid := binary.LittleEndian.Uint32(fidBytes[:])

	client, err := core.NewClientWithEndpoint(core.ClientConfig{
		FID:     fid,
		ID:      nodeID,
		Topo:    topo,
		Timeout: *timeout,
	}, func(h transport.Handler) (transport.Endpoint, error) {
		return transport.ListenTCP(nodeID, book, h)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	cmd, rest := args[0], args[1:]
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	color := sub.Uint("color", 0, "color id")
	sn := sub.Uint64("sn", 0, "sequence number")
	data := sub.String("data", "", "record payload (append)")
	from := sub.Uint64("from", 0, "exclusive lower SN bound (subscribe)")
	if err := sub.Parse(rest); err != nil {
		log.Fatal(err)
	}
	c := types.ColorID(*color)

	switch cmd {
	case "append":
		got, err := client.Append([][]byte{[]byte(*data)}, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("appended at sn=%d (%v)\n", uint64(got), got)
	case "read":
		got, err := client.Read(types.SN(*sn), c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", got)
	case "subscribe":
		recs, err := client.Subscribe(c, types.SN(*from))
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range recs {
			fmt.Printf("%d\t%q\n", uint64(r.SN), r.Data)
		}
		fmt.Fprintf(os.Stderr, "%d records\n", len(recs))
	case "trim":
		head, tail, err := client.Trim(types.SN(*sn), c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("log bounds now [%d, %d]\n", uint64(head), uint64(tail))
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
		os.Exit(2)
	}
}
