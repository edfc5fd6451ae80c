// Message queue between two serverless functions — the paper's Listing 1.
//
// Func1 appends payload data to a data log (the "yellow" color), creates a
// queue color (the "black" color), and enqueues the data's sequence number
// as a message. Func2 subscribes to the queue until the expected message
// appears, then reads the payload from the data log.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/faas"
	"flexlog/internal/queue"
	"flexlog/internal/types"
)

const (
	yellow types.ColorID = 11 // data log
	black  types.ColorID = 12 // message queue
)

func main() {
	cluster, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	platform, err := faas.New(faas.Config{Workers: 2}, cluster)
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.AddColor(yellow, types.MasterColor); err != nil {
		log.Fatal(err)
	}

	// Func1: append data to yellow, create the black queue, enqueue the
	// data's SN (Listing 1 lines 21–26).
	platform.Deploy("func1", func(inv *faas.Invocation) ([]byte, error) {
		snY, err := inv.Log.Append([][]byte{inv.Input}, yellow)
		if err != nil {
			return nil, err
		}
		mq, err := queue.Create(inv.Log, black, types.MasterColor)
		if err != nil {
			return nil, err
		}
		msg := fmt.Appendf(nil, "YELLOW_READ_IDX=%d", uint64(snY))
		if _, err := mq.Enqueue(msg); err != nil {
			return nil, err
		}
		fmt.Printf("func1: data at yellow/%v, queued %q\n", snY, msg)
		return msg, nil
	})

	// Func2: poll the black queue for the expected message, then read the
	// yellow record it points to (Listing 1 lines 27–32).
	platform.Deploy("func2", func(inv *faas.Invocation) ([]byte, error) {
		mq := queue.New(inv.Log, black)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		idx, err := mq.LookupFunc(ctx, func(b []byte) bool {
			var sn uint64
			return parseIdx(b, &sn)
		})
		if err != nil {
			return nil, err
		}
		msg, err := mq.Get(idx)
		if err != nil {
			return nil, err
		}
		var sn uint64
		parseIdx(msg, &sn)
		fmt.Printf("func2: found %q at black/%v\n", msg, idx)
		return inv.Log.Read(types.SN(sn), yellow)
	})

	if _, err := platform.Invoke("tenant", "func1", []byte("the payload")); err != nil {
		log.Fatal(err)
	}
	out, err := platform.Invoke("tenant", "func2", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("func2 read the payload through the queue: %q\n", out)
}

func parseIdx(b []byte, sn *uint64) bool {
	n, err := fmt.Sscanf(string(b), "YELLOW_READ_IDX=%d", sn)
	return err == nil && n == 1
}
