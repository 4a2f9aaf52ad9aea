package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/federation"
	"repro/internal/jobstore"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/solver"
)

// workload is one traffic shape: how its jobs look, how many callers run
// them closed-loop, and what serves them.
type workload struct {
	name string
	// gens is the generation budget of every job.
	gens int
	spec func(seed uint64, gens int) solver.Spec
	// optimum is the instance's proven optimal makespan: every Result must
	// carry it as its reference, and no schedule may beat it.
	optimum float64
	// pool is the number of distinct jobs in a run. The run cycles
	// through them until its time is up and runs each at least once, so
	// job_ms_p90 always has at least ten samples beyond it and mean_gap
	// is a fixed function of the seed.
	pool int
	// callers is the closed-loop client count.
	callers int
	// shape is the engine the workload's jobs run, for the traced replay.
	shape engineShape
	// start builds a fresh serving stack.
	start func(e env) (target, error)
}

// env is what a workload's stack is built from.
type env struct {
	tr      *tracer // nil: untraced, nothing wrapped
	tmp     string  // parent directory for durable stores
	callers int
}

// outcome is one job's terminal state as its caller saw it.
type outcome struct {
	res       *solver.Result
	status    solver.JobStatus // zero for in-process solves
	inProcess bool
}

// target is one built serving stack.
type target interface {
	// run executes one job for caller c, blocking until it is terminal.
	run(ctx context.Context, c int, spec solver.Spec) (outcome, error)
	// fedCounters sums the federation counters over the stack's nodes.
	fedCounters() serve.FederationCounters
	// close tears the stack down: servers drained, listeners and
	// connections closed, store directories removed.
	close() error
}

// registry names an embedded benchmark instance.
func registry(name string) solver.ProblemSpec { return solver.ProblemSpec{Instance: name} }

const (
	ft06Optimum = 55
	ft10Optimum = 930
)

var workloads = []*workload{
	// The engine alone: decode, JOX and the sharded step do nearly all
	// the work, and the odd worker scaling of the ms model shows here.
	{
		name: "solve-ft10-ms",
		gens: 200,
		spec: func(seed uint64, gens int) solver.Spec {
			return solver.Spec{Problem: registry("ft10"), Encoding: solver.EncSeq, Model: "ms",
				Params: solver.Params{Pop: 200, Workers: runtime.GOMAXPROCS(0)}, Budget: solver.Budget{Generations: gens}, Seed: seed}
		},
		optimum: ft10Optimum,
		pool:    240,
		callers: 1,
		shape:   engineShape{instance: "ft10", pop: 200, workers: runtime.GOMAXPROCS(0), demes: 1},
		start:   func(env) (target, error) { return solveTarget{}, nil },
	},
	// Small jobs through HTTP and SSE: about a third of each job is
	// serving and queueing, and the GA step runs on the master path.
	{
		name: "serve-ft06-small",
		gens: 50,
		spec: func(seed uint64, gens int) solver.Spec {
			return solver.Spec{Problem: registry("ft06"), Model: "serial", Budget: solver.Budget{Generations: gens}, Seed: seed}
		},
		optimum: ft06Optimum,
		pool:    1000,
		callers: runtime.NumCPU(),
		shape:   engineShape{instance: "ft06", pop: 80, demes: 1},
		start:   func(e env) (target, error) { return startFleet(e, 1, false) },
	},
	// The serving path with its writes: record puts, fsynced checkpoint
	// appends and epoch snapshots ride every job, so a gain for reads that
	// costs writes shows here and not on serve-ft06-small. One caller:
	// each job's demes already step on GOMAXPROCS workers, and a second
	// job beside it would measure the Go scheduler's interleaving.
	{
		name: "serve-ft10-island-durable",
		gens: 100,
		spec: func(seed uint64, gens int) solver.Spec {
			return solver.Spec{Problem: registry("ft10"), Model: "island", Params: solver.Params{Pop: 160},
				Budget: solver.Budget{Generations: gens}, Seed: seed}
		},
		optimum: ft10Optimum,
		pool:    200,
		callers: 1,
		shape:   engineShape{instance: "ft10", pop: 40, demes: 4},
		start:   func(e env) (target, error) { return startFleet(e, 1, true) },
	},
	// The only workload that crosses a node boundary: epoch barriers and
	// migrant pushes dominate. 60 generations (30 epochs) keep a job near
	// 100 ms, so a run completes the 100 jobs job_ms_p90 needs.
	{
		name: "federation-ft10-2node",
		gens: 60,
		spec: func(seed uint64, gens int) solver.Spec {
			return solver.Spec{Problem: registry("ft10"), Model: "island",
				Params: solver.Params{Pop: 320, Islands: 4, Interval: 2, Federate: true},
				Budget: solver.Budget{Generations: gens}, Seed: seed}
		},
		optimum: ft10Optimum,
		pool:    100,
		callers: 1,
		shape:   engineShape{instance: "ft10", pop: 80, demes: 4},
		start:   func(e env) (target, error) { return startFleet(e, 2, false) },
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// solveTarget runs jobs in-process through solver.Solve.
type solveTarget struct{}

func (solveTarget) run(ctx context.Context, _ int, spec solver.Spec) (outcome, error) {
	res, err := solver.Solve(ctx, spec)
	return outcome{res: res, inProcess: true}, err
}

func (solveTarget) fedCounters() serve.FederationCounters { return serve.FederationCounters{} }
func (solveTarget) close() error                          { return nil }

// fleet is one or more serve.Servers on loopback listeners; with more than
// one node they form a federation fleet. Callers talk to node 0, each with
// its own client and connection pool.
type fleet struct {
	servers    []*serve.Server
	listeners  []*httptest.Server
	nodes      []*federation.Node
	clients    []*client.Client
	transports []*http.Transport
	dirs       []string
}

// startFleet builds size nodes, durable ones over a fresh FileStore each.
// Addresses must exist before the nodes (the peer list is the fleet), so
// each listener serves through a handler slot filled once its node is
// built.
func startFleet(e env, size int, durable bool) (t *fleet, err error) {
	t = &fleet{}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	slots := make([]atomic.Pointer[http.Handler], size)
	urls := make([]string, size)
	for i := range slots {
		slot := &slots[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if h := slot.Load(); h != nil {
				(*h).ServeHTTP(w, r)
				return
			}
			http.Error(w, "node not ready", http.StatusServiceUnavailable)
		}))
		t.listeners = append(t.listeners, ts)
		urls[i] = ts.URL
	}
	for i := 0; i < size; i++ {
		cfg := serve.Config{MaxConcurrent: runtime.NumCPU()}
		if durable {
			dir, err := os.MkdirTemp(e.tmp, "store-")
			if err != nil {
				return t, fmt.Errorf("store dir: %w", err)
			}
			t.dirs = append(t.dirs, dir)
			fs, err := jobstore.Open(filepath.Join(dir, "jobs"))
			if err != nil {
				return t, err
			}
			cfg.Store = fs
			if e.tr != nil {
				cfg.Store = &tracedStore{inner: fs, tr: e.tr}
			}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return t, err
		}
		t.servers = append(t.servers, srv)
		var h http.Handler = srv.Handler()
		if size > 1 {
			fcfg := federation.Config{Self: urls[i], Peers: urls, Service: srv.Service()}
			if e.tr != nil {
				fcfg.NewClient = func(base string) *client.Client {
					return &client.Client{BaseURL: base, RequestTimeout: 2 * time.Second,
						HTTPClient: &http.Client{Transport: &tracedTransport{base: t.transport(), tr: e.tr}}}
				}
			}
			node, err := federation.New(fcfg)
			if err != nil {
				return t, err
			}
			if e.tr != nil {
				srv.Service().Exchange = &tracedExchange{inner: node, tr: e.tr, shards: map[string]span{}}
			}
			srv.SetFederation(node)
			t.nodes = append(t.nodes, node)
			mux := http.NewServeMux()
			mux.Handle("/v1/federation/", node.Handler())
			mux.Handle("/", srv.Handler())
			h = mux
		}
		if e.tr != nil {
			h = traceHandler(e.tr, h)
		}
		slots[i].Store(&h)
	}
	for c := 0; c < e.callers; c++ {
		var rt http.RoundTripper = t.transport()
		if e.tr != nil {
			rt = &tracedTransport{base: rt, tr: e.tr, caller: true}
		}
		t.clients = append(t.clients, &client.Client{BaseURL: urls[0], HTTPClient: &http.Client{Transport: rt}})
	}
	return t, nil
}

// transport returns a fresh connection pool the fleet closes on teardown.
func (t *fleet) transport() *http.Transport {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	t.transports = append(t.transports, tp)
	return tp
}

func (t *fleet) run(ctx context.Context, c int, spec solver.Spec) (outcome, error) {
	cl := t.clients[c]
	info, err := cl.Submit(ctx, spec)
	if err != nil {
		return outcome{}, fmt.Errorf("submit: %w", err)
	}
	done, err := cl.Await(ctx, info.ID)
	if err != nil {
		return outcome{status: info.JobStatus}, fmt.Errorf("await %s: %w", info.ID, err)
	}
	return outcome{res: done.Result, status: done.JobStatus}, nil
}

func (t *fleet) fedCounters() serve.FederationCounters {
	var sum serve.FederationCounters
	for _, n := range t.nodes {
		c := n.Counters()
		sum.MigrantsSent += c.MigrantsSent
		sum.PeerTimeouts += c.PeerTimeouts
	}
	return sum
}

func (t *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, s := range t.servers {
		if err := s.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("drain: %w", err))
		}
	}
	for _, ts := range t.listeners {
		ts.Close()
	}
	for _, tp := range t.transports {
		tp.CloseIdleConnections()
	}
	for _, d := range t.dirs {
		if err := os.RemoveAll(d); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
