// Quickstart: deploy an in-process FlexLog, append records, read them
// back, subscribe to the log, and trim it — the full Table 2 API, using
// the v2 client surface: functional options, context-first operations,
// async append futures, and typed *core.OpError errors.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

func main() {
	// One master region, two shards of three replicas, plus a sequencer
	// group with two backups — a miniature of the paper's testbed.
	cluster, err := core.SimpleCluster(core.TestClusterConfig(), 2)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	// v2 construction: functional options on top of the cluster defaults.
	// Every append goes through the client's batcher, which coalesces
	// concurrent appends into single ordering requests; a lone append
	// leaves at once (appends combine only behind batches that are still
	// unacknowledged). WithBatching would tune the batch bounds.
	client, err := cluster.NewClient(core.WithTimeout(5 * time.Second))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// AsyncAppend: fire all five, then collect — the futures resolve as
	// their (coalesced) batches commit.
	futs := make([]*core.AppendFuture, 5)
	for i := range futs {
		futs[i] = client.AsyncAppend([][]byte{fmt.Appendf(nil, "event-%d", i+1)}, types.MasterColor)
	}
	var sns []types.SN
	for i, f := range futs {
		sn, err := f.Wait(ctx)
		if err != nil {
			log.Fatal(err)
		}
		sns = append(sns, sn)
		fmt.Printf("appended event-%d at %v\n", i+1, sn)
	}

	// ReadCtx: read one record back by its sequence number.
	data, err := client.ReadCtx(ctx, sns[2], types.MasterColor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read %v -> %q\n", sns[2], data)

	// Errors are typed: a missing SN is an *OpError wrapping ErrNotFound.
	var maxSN types.SN
	for _, sn := range sns {
		if sn > maxSN {
			maxSN = sn
		}
	}
	if _, err := client.ReadCtx(ctx, maxSN+100, types.MasterColor); err != nil {
		var oe *core.OpError
		if errors.As(err, &oe) && errors.Is(err, core.ErrNotFound) {
			fmt.Printf("read of absent SN: op=%s color=%v -> not found (⊥)\n", oe.Op, oe.Color)
		} else {
			log.Fatal(err)
		}
	}

	// Subscribe: the totally ordered view across all shards.
	records, err := client.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subscribe found %d records:\n", len(records))
	for _, r := range records {
		fmt.Printf("  %v %q\n", r.SN, r.Data)
	}

	// TrimCtx: garbage-collect the prefix.
	head, tail, err := client.TrimCtx(ctx, sns[1], types.MasterColor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trimmed up to %v; log bounds now [%v, %v]\n", sns[1], head, tail)

	// A multi-record append gets a consecutive SN range — the invariant
	// the batching layer leans on for per-caller demultiplexing.
	last, err := client.AppendCtx(ctx, [][]byte{[]byte("batch-a"), []byte("batch-b")}, types.MasterColor)
	if err != nil {
		log.Fatal(err)
	}
	first := last - 1
	a, _ := client.ReadCtx(ctx, first, types.MasterColor)
	b, _ := client.ReadCtx(ctx, last, types.MasterColor)
	fmt.Printf("batch occupies [%v, %v]: %q, %q\n", first, last, a, b)
}
