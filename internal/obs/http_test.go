package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// get fetches a path from the test server and returns the body.
func get(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return string(body)
}

// TestDebugMux exercises every endpoint of the debug surface.
func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("flexlog_http_test_total", "help", Labels{"node": "1"}).Add(5)
	tr := NewTracer(reg, "append", Labels{"node": "1"}, 0, 8)
	tr.Observe("tok1", 3*time.Millisecond, []Span{{Name: "persist", D: time.Millisecond}})

	mux := NewMux(MuxConfig{
		Registry: reg,
		Tracers:  []*Tracer{tr},
		Lanes: func() []LaneSnapshot {
			return []LaneSnapshot{{Node: "1", Lane: "write", Enqueued: 10, Dequeued: 8, Depth: 2, MaxDepth: 4, Busy: time.Millisecond, Drops: 1}}
		},
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if body := get(t, srv, "/metrics"); !strings.Contains(body, `flexlog_http_test_total{node="1"} 5`) {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	body := get(t, srv, "/debug/traces")
	if !strings.Contains(body, "append") || !strings.Contains(body, "persist=") {
		t.Errorf("/debug/traces missing slow trace:\n%s", body)
	}
	body = get(t, srv, "/debug/lanes")
	if !strings.Contains(body, "write") || !strings.Contains(body, "DEPTH") {
		t.Errorf("/debug/lanes missing lane row:\n%s", body)
	}
	if body := get(t, srv, "/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

// TestServe checks the standalone listener path used by flexlog-server.
func TestServe(t *testing.T) {
	reg := NewRegistry()
	RegisterProcess(reg)
	srv, addr, err := Serve("127.0.0.1:0", MuxConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"flexlog_process_goroutines", "flexlog_process_heap_bytes", "flexlog_process_uptime_seconds"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
