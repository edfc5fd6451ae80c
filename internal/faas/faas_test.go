package faas

import (
	"errors"
	"fmt"
	"strings"
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
	p, cl := newPlatform(t)
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
	// The deployment record is in the log for a cold start to fetch.
	c, _ := cl.NewClient()
	recs, err := c.Subscribe(DeployColor, types.InvalidSN)
	if err != nil || len(recs) != 1 || !strings.Contains(string(recs[0].Data), `"name":"echo"`) {
		t.Fatalf("deployment records = %v (%v), want echo's", recs, err)
	}
}

func TestWarmInvocationsSkipColdStart(t *testing.T) {
	p, _ := newPlatform(t)
	ran := make(map[int]int) // invocations per worker
	p.Deploy("f", func(inv *Invocation) ([]byte, error) { ran[inv.Worker]++; return nil, nil })
	for i := 0; i < 5; i++ {
		if _, err := p.Invoke("t", "f", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Each worker that ran f keeps it warm, so only its first run was cold.
	total := 0
	for _, w := range p.workers {
		if total += ran[w.id]; w.warm["f"] != (ran[w.id] > 0) {
			t.Fatalf("worker %d ran f %d times, warm = %v", w.id, ran[w.id], w.warm["f"])
		}
	}
	if total != 5 {
		t.Fatalf("invocations = %d", total)
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

// TestFunctionErrorReturned: a function's failure reaches its caller as
// the function's own error.
func TestFunctionErrorReturned(t *testing.T) {
	p, _ := newPlatform(t)
	boom := errors.New("boom")
	p.Deploy("boom", func(inv *Invocation) ([]byte, error) {
		return nil, boom
	})
	if _, err := p.Invoke("t", "boom", nil); err != boom {
		t.Fatalf("err = %v, want the function's", err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	p, cl := newPlatform(t)
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
	c, _ := cl.NewClient()
	recs, err := c.Subscribe(types.MasterColor, types.InvalidSN)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < ok {
		t.Fatalf("log has %d records, want >= %d", len(recs), ok)
	}
}
