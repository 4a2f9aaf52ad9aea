package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/jobstore"
	"repro/internal/solver"
)

// The traced run wraps each layer at a seam the layer already exports;
// the untraced run installs none of these, so its figures carry no
// instrumentation at all.

// tracedStore times a jobstore.Store (serve.Config.Store).
type tracedStore struct {
	inner jobstore.Store
	tr    *tracer
}

func (s *tracedStore) timed(name, job string, f func() error) error {
	start := s.tr.now()
	err := f()
	s.tr.add(span{Name: name, Job: job, Start: start, End: s.tr.now()})
	if err != nil && !errors.Is(err, jobstore.ErrNotFound) && !errors.Is(err, jobstore.ErrNoCheckpoint) {
		s.tr.count("jobstore.errors", 1)
	}
	return err
}

func (s *tracedStore) PutRecord(rec *jobstore.Record) error {
	if b, err := json.Marshal(rec); err == nil {
		s.tr.count("jobstore.bytes", float64(len(b)))
	}
	return s.timed("jobstore.put", rec.ID, func() error { return s.inner.PutRecord(rec) })
}

func (s *tracedStore) GetRecord(id string) (rec *jobstore.Record, err error) {
	err = s.timed("jobstore.get", id, func() error { rec, err = s.inner.GetRecord(id); return err })
	return rec, err
}

func (s *tracedStore) ListRecords() (recs []*jobstore.Record, err error) {
	err = s.timed("jobstore.list", "", func() error { recs, err = s.inner.ListRecords(); return err })
	return recs, err
}

func (s *tracedStore) AppendCheckpoint(id string, frame []byte) error {
	s.tr.count("jobstore.bytes", float64(len(frame)))
	return s.timed("jobstore.append", id, func() error { return s.inner.AppendCheckpoint(id, frame) })
}

func (s *tracedStore) LoadCheckpoint(id string) (data []byte, err error) {
	err = s.timed("jobstore.load", id, func() error { data, err = s.inner.LoadCheckpoint(id); return err })
	return data, err
}

func (s *tracedStore) Delete(id string) error {
	return s.timed("jobstore.delete", id, func() error { return s.inner.Delete(id) })
}

// refHeader carries a workload caller's trace and client span to the
// server, so handler spans join the job's trace. Requests between fleet
// nodes do not carry it.
const refHeader = "X-Perfbench-Trace"

// tracedTransport times every HTTP attempt of a client.Client (its
// HTTPClient seam). caller marks the workload's own clients; the others
// are federation node clients (federation.Config.NewClient).
type tracedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	caller bool
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.newID()
	name := "client.request"
	ref := refFrom(req.Context())
	if t.caller {
		req = req.Clone(req.Context())
		req.Header.Set(refHeader, fmt.Sprintf("%d/%d", ref.trace, id))
	} else {
		name = "federation.request"
		if req.URL.Path == "/v1/federation/migrants" {
			name = "federation.push"
			t.tr.count("federation.push_bytes", float64(req.ContentLength))
		}
		ref = t.tr.currentRef()
	}
	start := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	t.tr.add(span{Trace: ref.trace, ID: id, Parent: ref.span, Name: name, Start: start, End: t.tr.now()})
	if t.caller {
		t.tr.count("client.requests", 1)
		if err != nil || transient(resp.StatusCode) {
			t.tr.count("client.retries", 1)
		}
	}
	return resp, err
}

// transient mirrors the statuses the serve client retries.
func transient(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// traceHandler is http.Handler middleware timing each request to a node.
// Event streams of the workload's callers are also read frame by frame:
// SSE frames, migration-event arrival times (island epochs) and the done
// event's sequence number (events the job emitted).
func traceHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ref traceRef
		fromCaller := false
		if v := r.Header.Get(refHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			ref.trace, _ = strconv.ParseUint(a, 10, 64)
			ref.span, _ = strconv.ParseUint(b, 10, 64)
			fromCaller = true
		}
		name, job := route(r)
		if !fromCaller {
			name = "serve.peer"
		}
		id := tr.newID()
		start := tr.now()
		if fromCaller && name == "serve.events" {
			sw := &sseWriter{ResponseWriter: w, tr: tr, parent: id, job: job}
			h.ServeHTTP(sw, r)
			sw.finish()
		} else {
			h.ServeHTTP(w, r)
		}
		tr.add(span{Trace: ref.trace, ID: id, Parent: ref.span, Name: name, Job: job, Start: start, End: tr.now()})
	})
}

// route names a request by the serve route it hits, with the job ID the
// path carries.
func route(r *http.Request) (name, job string) {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "serve.submit", ""
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/events"):
		return "serve.events", strings.TrimSuffix(strings.TrimPrefix(p, "/v1/jobs/"), "/events")
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "serve.get", strings.TrimPrefix(p, "/v1/jobs/")
	}
	return "serve.other", ""
}

// sseWriter watches the frames an event-stream handler writes. The serve
// handler writes each frame with one Write ("event: <type>\nid: <seq>\n
// data: ...\n\n") and flushes it.
type sseWriter struct {
	http.ResponseWriter
	tr      *tracer
	parent  uint64
	job     string
	frames  int
	migs    int
	lastMig int64
	doneSeq int64
}

func (w *sseWriter) Write(p []byte) (int, error) {
	if typ, ok := bytes.CutPrefix(p, []byte("event: ")); ok {
		w.frames++
		typ, rest, _ := bytes.Cut(typ, []byte("\n"))
		switch string(typ) {
		case string(solver.EventMigration):
			now := w.tr.now()
			if w.migs > 0 {
				w.tr.add(span{Parent: w.parent, Name: "island.epoch", Job: w.job, Start: w.lastMig, End: now})
			}
			w.migs++
			w.lastMig = now
		case string(solver.EventDone):
			if seq, ok := bytes.CutPrefix(rest, []byte("id: ")); ok {
				seq, _, _ = bytes.Cut(seq, []byte("\n"))
				w.doneSeq, _ = strconv.ParseInt(string(seq), 10, 64)
			}
		}
	}
	return w.ResponseWriter.Write(p)
}

func (w *sseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *sseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *sseWriter) finish() {
	w.tr.count("serve.sse_streams", 1)
	w.tr.count("serve.sse_frames", float64(w.frames))
	w.tr.count("island.migrations", float64(w.migs))
	w.tr.count("solver.events", float64(w.doneSeq))
}

// tracedExchange times a node's migrant exchange (solver.Service.Exchange):
// each epoch barrier, inside the span of the shard run that called it.
type tracedExchange struct {
	inner solver.MigrantExchange
	tr    *tracer

	mu     sync.Mutex
	shards map[string]span // open shard spans by key/rank
}

func shardKey(key string, rank int) string { return key + "/" + strconv.Itoa(rank) }

func (x *tracedExchange) ShardStarted(key string, rank, nodes int, epochTimeoutMS int64) {
	ref := x.tr.currentRef()
	s := span{Trace: ref.trace, ID: x.tr.newID(), Parent: ref.span, Name: "federation.shard", Start: x.tr.now()}
	x.mu.Lock()
	x.shards[shardKey(key, rank)] = s
	x.mu.Unlock()
	x.inner.ShardStarted(key, rank, nodes, epochTimeoutMS)
}

func (x *tracedExchange) ExchangeMigrants(ctx context.Context, key string, rank, epoch int, out []solver.Migrant, cp *solver.Checkpoint) solver.ExchangeReport {
	x.mu.Lock()
	sh := x.shards[shardKey(key, rank)]
	x.mu.Unlock()
	start := x.tr.now()
	rep := x.inner.ExchangeMigrants(ctx, key, rank, epoch, out, cp)
	x.tr.add(span{Trace: sh.Trace, Parent: sh.ID, Name: "federation.exchange", Start: start, End: x.tr.now()})
	return rep
}

func (x *tracedExchange) MigrantRejected(key string) { x.inner.MigrantRejected(key) }

func (x *tracedExchange) ShardFinished(key string, rank int) {
	x.inner.ShardFinished(key, rank)
	k := shardKey(key, rank)
	x.mu.Lock()
	s, ok := x.shards[k]
	delete(x.shards, k)
	x.mu.Unlock()
	if ok {
		s.End = x.tr.now()
		x.tr.add(s)
	}
}
