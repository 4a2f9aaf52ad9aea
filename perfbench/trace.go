package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one job share
// Trace; Parent is the span that caused this one. Job carries the server's
// job ID where the seam knows it but not the trace (the job store, the
// event stream); attribute resolves those onto the job's trace.
type span struct {
	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// maxSpans bounds the spans one run keeps in memory (about 20 MB); later
// spans are counted as dropped, and their counters still accumulate.
const maxSpans = 1 << 18

// tracer keeps a run's spans and counters in memory until the run ends.
// A nil *tracer is the untraced run: no seam is wrapped at all then, so
// the methods are only called on a live tracer.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// current is the job in flight on a single-caller workload: seams that
	// cannot see the caller's context (the federation exchange runs on the
	// shard's goroutines) attribute their spans to it.
	current atomic.Pointer[traceRef]
	// paused drops spans and counts, while a stack warms up or is torn
	// down.
	paused atomic.Bool

	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

// at converts a wall time to the tracer's clock.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	if t.paused.Load() {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// count adds v to the named counter.
func (t *tracer) count(name string, v float64) {
	if t.paused.Load() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// durations returns the durations in nanoseconds of every span so named.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// traceRef locates a span: its trace and its own ID.
type traceRef struct{ trace, span uint64 }

type refKey struct{}

func withRef(ctx context.Context, r traceRef) context.Context {
	return context.WithValue(ctx, refKey{}, r)
}

// refFrom returns the ref withRef stored, or the zero ref.
func refFrom(ctx context.Context) traceRef {
	r, _ := ctx.Value(refKey{}).(traceRef)
	return r
}

// currentRef is the single-caller job in flight, or the zero ref.
func (t *tracer) currentRef() traceRef {
	if r := t.current.Load(); r != nil {
		return *r
	}
	return traceRef{}
}

// attribute hangs spans known only by server job ID under that job's
// root span (the "job" span the caller recorded with the same Job).
func attribute(spans []span) {
	roots := map[string]span{}
	for _, s := range spans {
		if s.Name == "job" && s.Job != "" {
			roots[s.Job] = s
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Trace != 0 || s.Job == "" {
			continue
		}
		if r, ok := roots[s.Job]; ok {
			s.Trace = r.Trace
			if s.Parent == 0 {
				s.Parent = r.ID
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// work) are merged, so covered time never exceeds the span.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, lo, hi := int64(0), int64(0), int64(-1)
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// write stores the run's spans as JSON lines under dir: a header line with
// the host record and counters, then one span per line with its self time.
func (t *tracer) write(dir, name string, header map[string]any) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	header["counters"] = t.counts
	header["dropped_spans"] = t.dropped
	t.mu.Unlock()
	attribute(spans)
	self := selfTimes(spans)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return "", err
	}
	type line struct {
		span
		Self int64 `json:"self_ns"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{s, self[s.ID]}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
