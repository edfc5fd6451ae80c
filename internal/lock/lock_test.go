package lock

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

func newLockCluster(t *testing.T) *core.Cluster {
	t.Helper()
	cl, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func mkLock(t *testing.T, cl *core.Cluster, holder string) *Lock {
	t.Helper()
	c, err := cl.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	l, err := Create(c, 40, types.MasterColor, holder)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAcquireRelease(t *testing.T) {
	cl := newLockCluster(t)
	l := mkLock(t, cl, "alice")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if head, _ := l.queueHead(); head != l.acquiredAt {
		t.Fatalf("queue head = %v, alice acquired at %v", head, l.acquiredAt)
	}
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("double acquire by same handle should fail")
	}
	if err := l.Release(); err != nil {
		t.Fatal(err)
	}
	if head, _ := l.queueHead(); head.Valid() {
		t.Fatalf("queue head after release = %v", head)
	}
	if err := l.Release(); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release: %v", err)
	}
}

func TestContenderWaitsForRelease(t *testing.T) {
	cl := newLockCluster(t)
	alice := mkLock(t, cl, "alice")
	bob := mkLock(t, cl, "bob")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := alice.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- bob.Acquire(ctx) }()
	// Bob must not acquire while Alice holds.
	select {
	case err := <-got:
		t.Fatalf("bob acquired while alice holds (err=%v)", err)
	case <-time.After(30 * time.Millisecond):
	}
	if err := alice.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob never acquired after release")
	}
	if head, _ := bob.queueHead(); head != bob.acquiredAt {
		t.Fatalf("queue head = %v, bob acquired at %v", head, bob.acquiredAt)
	}
}

func TestAcquireTimeoutWithdraws(t *testing.T) {
	cl := newLockCluster(t)
	alice := mkLock(t, cl, "alice")
	bob := mkLock(t, cl, "bob")
	carol := mkLock(t, cl, "carol")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := alice.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Bob gives up quickly; his queue entry must be withdrawn so Carol is
	// next in line, not deadlocked behind a ghost.
	shortCtx, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if err := bob.Acquire(shortCtx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("bob: %v", err)
	}
	carolDone := make(chan error, 1)
	go func() { carolDone <- carol.Acquire(ctx) }()
	if err := alice.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-carolDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("carol blocked behind a withdrawn waiter")
	}
}

// TestMutualExclusionUnderContention: N contenders hammer a critical
// section; the lock must serialize them (no two inside at once) and every
// contender must eventually get in (the queue is fair by log order).
func TestMutualExclusionUnderContention(t *testing.T) {
	cl := newLockCluster(t)
	const contenders, rounds = 4, 3
	var inside int32
	var mu sync.Mutex
	entries := 0
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		l := mkLock(t, cl, string(rune('a'+i)))
		wg.Add(1)
		go func(l *Lock) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for r := 0; r < rounds; r++ {
				if err := l.Acquire(ctx); err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				mu.Lock()
				inside++
				if inside != 1 {
					t.Errorf("mutual exclusion violated: %d inside", inside)
				}
				entries++
				inside--
				mu.Unlock()
				if err := l.Release(); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	if entries != contenders*rounds {
		t.Fatalf("entries = %d, want %d", entries, contenders*rounds)
	}
}
