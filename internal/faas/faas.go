// Package faas is a miniature serverless platform modeled on Figure 3 of
// the paper: front-end servers receive and authenticate invocations, an
// orchestrator tracks cluster utilization, and a workers' manager picks a
// host, retrieves the function's deployment state from FlexLog and starts
// the instance; the running function then uses the FlexLog API for its
// inputs and state.
//
// The platform exists to drive FlexLog the way the paper's serverless
// applications do (Table 1 profiling, the message-queue and map-reduce
// examples); container machinery is stood in for by Go closures, while the
// control-plane flow — deploy state through the log, route through the
// orchestrator, per-worker concurrency limits, cold-start accounting —
// matches the figure.
package faas

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"flexlog/internal/core"
	"flexlog/internal/types"
)

var (
	// ErrUnknownFunction is returned for invocations of undeployed names.
	ErrUnknownFunction = errors.New("faas: unknown function")
	// ErrUnauthenticated is returned by the front-end for requests
	// without a tenant.
	ErrUnauthenticated = errors.New("faas: unauthenticated request")
	// ErrOverloaded is returned when every worker is at capacity.
	ErrOverloaded = errors.New("faas: all workers at capacity")
)

// DeployColor is the color holding deployment records (the "function
// state, e.g. a Docker image" the workers' manager retrieves in Fig. 3).
const DeployColor types.ColorID = 4000

// Handler is the user-provided function code.
type Handler func(inv *Invocation) ([]byte, error)

// Invocation is one function execution context.
type Invocation struct {
	Function string
	Tenant   string
	Input    []byte
	Log      *core.Client // the FlexLog handle (Fig. 3: functions talk to FlexLog directly)
	Worker   int
}

// deployRecord is the state persisted to FlexLog at deployment.
type deployRecord struct {
	Name       string    `json:"name"`
	Version    int       `json:"version"`
	DeployedAt time.Time `json:"deployed_at"`
}

// worker is one execution host.
type worker struct {
	id     int
	slots  chan struct{}
	warm   map[string]bool // functions with a warm instance
	warmMu sync.Mutex
	client *core.Client
}

// Platform is the serverless control plane plus execution layer.
type Platform struct {
	mu       sync.Mutex
	handlers map[string]Handler
	versions map[string]int
	workers  []*worker
	next     int
}

// Config sizes the platform.
type Config struct {
	Workers        int
	SlotsPerWorker int // concurrent instances per worker
}

// New builds a platform over an existing FlexLog cluster. The deployment
// color is provisioned on demand.
func New(cfg Config, cluster *core.Cluster) (*Platform, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.SlotsPerWorker <= 0 {
		cfg.SlotsPerWorker = 8
	}
	if err := cluster.AddColor(DeployColor, types.MasterColor); err != nil {
		return nil, err
	}
	p := &Platform{
		handlers: make(map[string]Handler),
		versions: make(map[string]int),
	}
	for i := 0; i < cfg.Workers; i++ {
		c, err := cluster.NewClient()
		if err != nil {
			return nil, err
		}
		w := &worker{
			id:     i,
			slots:  make(chan struct{}, cfg.SlotsPerWorker),
			warm:   make(map[string]bool),
			client: c,
		}
		p.workers = append(p.workers, w)
	}
	return p, nil
}

// Deploy registers function code and appends the deployment record to
// FlexLog (Fig. 3 step 4 retrieves it at instance start).
func (p *Platform) Deploy(name string, h Handler) error {
	p.mu.Lock()
	p.handlers[name] = h
	p.versions[name]++
	version := p.versions[name]
	w := p.workers[0]
	p.mu.Unlock()

	rec, err := json.Marshal(deployRecord{Name: name, Version: version, DeployedAt: time.Now()})
	if err != nil {
		return err
	}
	if _, err := w.client.Append([][]byte{rec}, DeployColor); err != nil {
		return fmt.Errorf("faas: persisting deployment: %w", err)
	}
	return nil
}

// Invoke runs one invocation end to end: front-end auth, orchestrator
// routing, workers' manager instance start, function execution.
func (p *Platform) Invoke(tenant, function string, input []byte) ([]byte, error) {
	// Front-end: authenticate (Fig. 3 step 1).
	if tenant == "" {
		return nil, ErrUnauthenticated
	}
	// Orchestrator: pick the least-loaded worker (Fig. 3 steps 2–3).
	p.mu.Lock()
	h, ok := p.handlers[function]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, function)
	}
	w := p.pickWorkerLocked()
	p.mu.Unlock()
	if w == nil {
		return nil, ErrOverloaded
	}
	defer w.release()

	// Workers' manager: start the instance — a cold start retrieves the
	// deployment state from FlexLog first (Fig. 3 step 4).
	w.warmMu.Lock()
	cold := !w.warm[function]
	w.warm[function] = true
	w.warmMu.Unlock()
	if cold {
		if _, err := w.client.Subscribe(DeployColor, types.InvalidSN); err != nil {
			return nil, fmt.Errorf("faas: retrieving deployment state: %w", err)
		}
	}

	inv := &Invocation{
		Function: function,
		Tenant:   tenant,
		Input:    input,
		Log:      w.client,
		Worker:   w.id,
	}
	return h(inv)
}

// pickWorkerLocked chooses the worker with the most free slots; nil when
// everything is saturated. Caller holds p.mu.
func (p *Platform) pickWorkerLocked() *worker {
	var best *worker
	bestFree := 0
	for i := range p.workers {
		w := p.workers[(p.next+i)%len(p.workers)]
		free := cap(w.slots) - len(w.slots)
		if free > bestFree {
			best, bestFree = w, free
		}
	}
	p.next++
	if best == nil {
		return nil
	}
	best.slots <- struct{}{}
	return best
}

func (w *worker) release() { <-w.slots }
