package queue

import (
	"context"
	"errors"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

func newQueue(t *testing.T) (*core.Cluster, *MessageQueue) {
	t.Helper()
	cl, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	mq, err := Create(c, 30, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	return cl, mq
}

func TestEnqueueGet(t *testing.T) {
	_, mq := newQueue(t)
	idx, err := mq.Enqueue([]byte("m1"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := mq.Get(idx)
	if err != nil || string(got) != "m1" {
		t.Fatalf("get = %q, %v", got, err)
	}
}

func TestLookupFindsMessage(t *testing.T) {
	_, mq := newQueue(t)
	mq.Enqueue([]byte("a"))
	want, _ := mq.Enqueue([]byte("needle"))
	mq.Enqueue([]byte("b"))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	idx, err := mq.Lookup(ctx, []byte("needle"))
	if err != nil || idx != want {
		t.Fatalf("lookup = %v, %v (want %v)", idx, err, want)
	}
}

func TestLookupTimesOut(t *testing.T) {
	_, mq := newQueue(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := mq.Lookup(ctx, []byte("never")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup of missing message: %v", err)
	}
}

func TestLookupBlocksUntilProducerArrives(t *testing.T) {
	_, mq := newQueue(t)
	go func() {
		time.Sleep(10 * time.Millisecond)
		mq.Enqueue([]byte("late"))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := mq.Lookup(ctx, []byte("late")); err != nil {
		t.Fatal(err)
	}
}

func TestTwoQueuesAreIndependent(t *testing.T) {
	cl, mq1 := newQueue(t)
	c2, _ := cl.NewClient()
	mq2, err := Create(c2, 31, types.MasterColor)
	if err != nil {
		t.Fatal(err)
	}
	mq1.Enqueue([]byte("one"))
	mq2.Enqueue([]byte("two"))
	for _, mq := range []*MessageQueue{mq1, mq2} {
		if recs, err := mq.handle.Subscribe(mq.color, types.InvalidSN); err != nil || len(recs) != 1 {
			t.Fatalf("queue %v holds %d messages, %v", mq.color, len(recs), err)
		}
	}
	got, _ := mq2.Get(types.MakeSN(1, 1))
	if string(got) != "two" {
		t.Fatalf("queue2 head = %q", got)
	}
}
