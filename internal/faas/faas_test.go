package faas

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

func newPlatform(t *testing.T) (*Platform, *core.Cluster) {
	t.Helper()
	cl, err := core.SimpleCluster(core.TestClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	p, err := New(Config{Workers: 2, SlotsPerWorker: 4}, cl)
	if err != nil {
		t.Fatal(err)
	}
	return p, cl
}

func TestDeployAndInvoke(t *testing.T) {
	p, _ := newPlatform(t)
	err := p.Deploy("echo", func(inv *Invocation) ([]byte, error) {
		return append([]byte("echo:"), inv.Input...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Invoke("tenant-a", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("out = %q", out)
	}
	st := stats(p)
	if st.Invocations != 1 || st.ColdStarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWarmInvocationsSkipColdStart(t *testing.T) {
	p, _ := newPlatform(t)
	p.Deploy("f", func(inv *Invocation) ([]byte, error) { return nil, nil })
	for i := 0; i < 5; i++ {
		if _, err := p.Invoke("t", "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	st := stats(p)
	// At most one cold start per worker.
	if st.ColdStarts > 2 {
		t.Fatalf("cold starts = %d", st.ColdStarts)
	}
	if st.Invocations != 5 {
		t.Fatalf("invocations = %d", st.Invocations)
	}
}

func TestAuthAndUnknown(t *testing.T) {
	p, _ := newPlatform(t)
	if _, err := p.Invoke("", "f", nil); !errors.Is(err, ErrUnauthenticated) {
		t.Fatalf("unauthenticated: %v", err)
	}
	if _, err := p.Invoke("t", "missing", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown function: %v", err)
	}
	if stats(p).Rejected != 2 {
		t.Fatalf("rejected = %d", stats(p).Rejected)
	}
}

func TestFunctionsShareStateThroughFlexLog(t *testing.T) {
	p, cl := newPlatform(t)
	if err := cl.AddColor(10, types.MasterColor); err != nil {
		t.Fatal(err)
	}
	p.Deploy("producer", func(inv *Invocation) ([]byte, error) {
		sn, err := inv.Log.Append([][]byte{inv.Input}, 10)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", uint64(sn))), nil
	})
	p.Deploy("consumer", func(inv *Invocation) ([]byte, error) {
		var sn uint64
		fmt.Sscanf(string(inv.Input), "%d", &sn)
		return inv.Log.Read(types.SN(sn), 10)
	})
	snStr, err := p.Invoke("t", "producer", []byte("shared-state"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Invoke("t", "consumer", snStr)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "shared-state" {
		t.Fatalf("consumer read %q", got)
	}
}

func TestFunctionErrorCounted(t *testing.T) {
	p, _ := newPlatform(t)
	p.Deploy("boom", func(inv *Invocation) ([]byte, error) {
		return nil, errors.New("boom")
	})
	if _, err := p.Invoke("t", "boom", nil); err == nil {
		t.Fatal("expected error")
	}
	if stats(p).Failures != 1 {
		t.Fatalf("failures = %d", stats(p).Failures)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	p, _ := newPlatform(t)
	p.Deploy("cnt", func(inv *Invocation) ([]byte, error) {
		_, err := inv.Log.Append([][]byte{[]byte("x")}, types.MasterColor)
		return nil, err
	})
	var wg sync.WaitGroup
	const n = 20
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Invoke("t", "cnt", nil)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	ok := 0
	for err := range errs {
		if err == nil {
			ok++
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if ok == 0 {
		t.Fatal("no invocation succeeded")
	}
	// The appended records are all in the log.
	c, _ := p.cluster.NewClient()
	recs, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < ok {
		t.Fatalf("log has %d records, want >= %d", len(recs), ok)
	}
}

// stats returns a snapshot of the platform's counters.
func stats(p *Platform) Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
