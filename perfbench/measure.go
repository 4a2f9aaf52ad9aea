package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// setupRuns is how often an end-to-end run builds its stack; setup_s
	// is the median, so one slow start does not move it.
	setupRuns = 9
	// warmupPerCaller jobs run on every fresh stack before timing.
	warmupPerCaller = 2
	// traceMinJobs is the least each traced-run quarter runs, for its medians.
	traceMinJobs = 10
)

// stack is a built and warmed-up target with its set-up time.
type stack struct {
	tgt   target
	setup time.Duration
}

// build starts a fresh stack and warms it up. Warm-up jobs use seeds
// disjoint from the timed ones and must pass the same checks.
func build(w *workload, e env, o options) (stack, error) {
	t0 := time.Now()
	tgt, err := w.start(e)
	if err != nil {
		return stack{}, fmt.Errorf("%s: start: %w", w.name, err)
	}
	jobs, _ := closedLoop(w, tgt, nil, loopPlan{
		seed: ^o.seed, minJobs: warmupPerCaller * w.callers, hardStop: o.deadline,
	})
	for _, j := range jobs {
		if j.miss != "" {
			tgt.close()
			return stack{}, fmt.Errorf("%s: warm-up job %d: %s", w.name, j.index, j.miss)
		}
	}
	return stack{tgt: tgt, setup: time.Since(t0)}, nil
}

// teardown closes a stack and checks it left no goroutines behind, so one
// phase's leftovers cannot slow the next.
func teardown(s stack, base int) error {
	if err := s.tgt.close(); err != nil {
		return fmt.Errorf("teardown: %w", err)
	}
	if n := settle(base); n > 0 {
		return fmt.Errorf("teardown: %d goroutines still running", n)
	}
	return nil
}

func newEnv(w *workload, o options, tr *tracer) (env, error) {
	tmp := filepath.Join(o.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return env{}, err
	}
	return env{tr: tr, tmp: tmp, callers: w.callers}, nil
}

// measureEndToEnd is the untraced run: set up setupRuns times, then run
// the closed loop for the requested time and at least the workload's
// distinct jobs. Latency and throughput come from its calm jobs (calm.go).
func measureEndToEnd(w *workload, o options, log io.Writer) (result, error) {
	e, err := newEnv(w, o, nil)
	if err != nil {
		return result{}, err
	}
	base := runtime.NumGoroutine()
	var setups []float64
	var s stack
	for r := 0; r < setupRuns; r++ {
		if s, err = build(w, e, o); err != nil {
			return result{}, err
		}
		setups = append(setups, s.setup.Seconds())
		if r < setupRuns-1 {
			if err := teardown(s, base); err != nil {
				return result{}, err
			}
		}
	}
	steal := startStealTrace(stealEvery)
	jobs, wall := closedLoop(w, s.tgt, nil, loopPlan{
		seed: o.seed, minTime: seconds(o.seconds), minJobs: w.pool, hardStop: o.deadline,
	})
	steal.finish()
	if err := teardown(s, base); err != nil {
		return result{}, err
	}
	if len(jobs) < w.pool {
		return result{}, fmt.Errorf("%s: %w (%d of %d)", w.name, errShort, len(jobs), w.pool)
	}
	p := summarise(w, jobs)
	exposure := make([]float64, len(p.passed))
	for i, j := range p.passed {
		exposure[i] = steal.share(j.start, j.start.Add(j.cycle))
	}
	calm, limit := calmJobs(p.passed, exposure, calmShare, calmLeast)
	var latency []float64
	var cycles float64 // caller-seconds the calm jobs took, checks included
	var evals int64
	for _, j := range calm {
		latency = append(latency, j.ms)
		cycles += j.cycle.Seconds()
		evals += j.out.res.Evaluations
	}
	fmt.Fprintf(log, "steal %.1f%% of CPU time over %.3f s; %d of %d jobs lost at most %.1f%% of theirs and are measured\n",
		100*steal.overall(), wall.Seconds(), len(calm), len(p.passed), 100*limit)
	p90, err := percentile(latency, 0.9)
	if err != nil {
		return result{}, fmt.Errorf("%s: job_ms_p90: %w", w.name, err)
	}
	// Each caller is always in some job's cycle, so the closed loop
	// completes callers jobs per mean cycle (Little's law).
	rate := float64(w.callers) / cycles
	values := map[string]float64{
		"setup_s":     median(setups),
		"job_ms_p50":  median(latency),
		"job_ms_p90":  p90,
		"jobs_per_s":  rate * float64(len(calm)),
		"evals_per_s": rate * float64(evals),
		"mean_gap":    p.meanGap,
	}
	res := result{Correct: p.failed == 0, Attempted: len(jobs), Failed: p.failed, Metrics: map[string]metric{}}
	counts := map[string]string{
		"setup_s":     fmt.Sprintf("n=%d setups", len(setups)),
		"job_ms_p50":  fmt.Sprintf("n=%d jobs", len(latency)),
		"job_ms_p90":  fmt.Sprintf("n=%d jobs", len(latency)),
		"jobs_per_s":  fmt.Sprintf("n=%d jobs over %.3f caller-s", len(calm), cycles),
		"evals_per_s": fmt.Sprintf("n=%d evaluations over %.3f caller-s", evals, cycles),
		"mean_gap":    fmt.Sprintf("n=%d distinct jobs", w.pool),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "metric %-12s %14.6g %-6s %s\n", d.name, values[d.name], d.unit, counts[d.name])
	}
	fmt.Fprintf(log, "metric %-12s %14.6g %-6s n=%d attempted, %d failed\n", "failed_frac",
		ratio(float64(p.failed), float64(len(jobs))), "ratio", len(jobs), p.failed)
	fmt.Fprintf(log, "digest %s over %d distinct jobs\n", digest(p.objs), w.pool)
	printFailures(log, p)
	return res, nil
}

// measureLayers is the traced run: the time splits into quarters run
// untraced, traced, traced and untraced, each on a fresh stack, so a drift
// in the host's speed over the run cancels out of trace_overhead; then the
// engine replay.
func measureLayers(w *workload, o options, log io.Writer) (result, error) {
	base := runtime.NumGoroutine()
	// A first stack only warms the process up, as the end-to-end run's
	// earlier set-ups do, so the first untraced quarter does not pay for it.
	e, err := newEnv(w, o, nil)
	if err != nil {
		return result{}, err
	}
	s, err := build(w, e, o)
	if err != nil {
		return result{}, err
	}
	if err := teardown(s, base); err != nil {
		return result{}, err
	}
	tr := newTracer()
	var jobs [2][]jobRecord // untraced, traced
	var fedSent, fedTimeouts int64
	for _, traced := range []bool{false, true, true, false} {
		var ptr *tracer
		if traced {
			ptr = tr
		}
		e, err := newEnv(w, o, ptr)
		if err != nil {
			return result{}, err
		}
		// Warm-up jobs and teardown are not part of the traced figures.
		tr.paused.Store(true)
		s, err := build(w, e, o)
		if err != nil {
			return result{}, err
		}
		tr.paused.Store(!traced)
		before := s.tgt.fedCounters()
		js, _ := closedLoop(w, s.tgt, ptr, loopPlan{
			seed: o.seed, minTime: seconds(o.seconds / 4), minJobs: traceMinJobs, hardStop: o.deadline,
		})
		tr.paused.Store(true)
		if traced {
			after := s.tgt.fedCounters()
			fedSent += after.MigrantsSent - before.MigrantsSent
			fedTimeouts += after.PeerTimeouts - before.PeerTimeouts
		}
		if err := teardown(s, base); err != nil {
			return result{}, err
		}
		k := 0
		if traced {
			k = 1
		}
		jobs[k] = append(jobs[k], js...)
	}
	untraced, traced := summarise(w, jobs[0]), summarise(w, jobs[1])
	if len(untraced.latency) == 0 || len(traced.latency) == 0 {
		return result{}, fmt.Errorf("%s: the traced run completed no job traced or untraced", w.name)
	}
	tr.paused.Store(false)
	engine, err := layerReplay(tr, w.shape, w.gens, o.seed)
	if err != nil {
		return result{}, err
	}
	values, err := layerMetrics(tr, w, untraced, traced, fedSent, fedTimeouts)
	if err != nil {
		return result{}, err
	}
	for k, v := range engine {
		values[k] = v
	}

	failed := untraced.failed + traced.failed
	attempted := len(untraced.jobs) + len(traced.jobs)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(log, "metric %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(log, "traced quarters: %d jobs; untraced quarters: %d jobs\n", len(traced.jobs), len(untraced.jobs))
	printFailures(log, untraced)
	printFailures(log, traced)

	header := map[string]any{"host": hostRecord(), "workload": w.name, "seed": o.seed, "metrics": values}
	path, err := tr.write(filepath.Join(o.out, "spans"), fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed), header)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "spans written to %s\n", path)
	return res, nil
}

// layerMetrics derives the per-layer figures from the traced quarters' spans
// and counters. Per-job figures divide by the traced jobs.
func layerMetrics(tr *tracer, w *workload, untraced, traced phase, fedSent, fedTimeouts int64) (map[string]float64, error) {
	n := float64(len(traced.jobs))
	ms := func(name string) float64 { return median(tr.durations(name)) / 1e6 }
	var overhead []float64
	for _, j := range traced.jobs {
		if st := j.out.status; j.miss == "" && !st.Started.IsZero() {
			overhead = append(overhead, j.ms-float64(st.Finished.Sub(st.Started).Nanoseconds())/1e6)
		}
	}
	untracedP50 := median(untraced.latency)
	m := map[string]float64{
		"island.epoch_ms":             ms("island.epoch"),
		"island.epochs_per_job":       tr.counter("island.migrations") / n,
		"solver.queue_ms":             ms("solver.queue"),
		"solver.run_ms":               ms("solver.run"),
		"solver.events_per_job":       tr.counter("solver.events") / n,
		"serve.submit_ms":             ms("serve.submit"),
		"serve.events_ms":             ms("serve.events"),
		"serve.overhead_ms":           median(overhead),
		"serve.overhead_share":        median(overhead) / untracedP50,
		"serve.sse_frames_per_job":    tr.counter("serve.sse_frames") / n,
		"jobstore.put_ms":             ms("jobstore.put"),
		"jobstore.appends_per_job":    float64(len(tr.durations("jobstore.append"))) / n,
		"jobstore.bytes_per_job":      tr.counter("jobstore.bytes") / n,
		"jobstore.errors":             tr.counter("jobstore.errors"),
		"client.requests_per_job":     tr.counter("client.requests") / n,
		"client.retries":              tr.counter("client.retries"),
		"federation.push_ms":          ms("federation.push"),
		"federation.push_bytes":       ratio(tr.counter("federation.push_bytes"), float64(len(tr.durations("federation.push")))),
		"federation.migrants_per_job": float64(fedSent) / n,
		"federation.peer_timeouts":    float64(fedTimeouts),
		"trace_overhead":              median(traced.latency) / untracedP50,
	}
	exchange := tr.durations("federation.exchange")
	m["federation.barrier_share"] = ratio(sum(exchange), sum(tr.durations("federation.shard")))
	for name, xs := range map[string][]float64{"jobstore.append_ms": tr.durations("jobstore.append"), "federation.exchange_ms": exchange} {
		if len(xs) == 0 {
			continue // the layer is not on this workload's path
		}
		p90, err := percentile(xs, 0.9)
		if err != nil {
			return nil, fmt.Errorf("%s: %s_p90: %w", w.name, name, err)
		}
		m[name+"_p50"] = median(xs) / 1e6
		m[name+"_p90"] = p90 / 1e6
	}
	return m, nil
}

func printFailures(log io.Writer, p phase) {
	const show = 20
	for i, f := range p.failures {
		if i == show {
			fmt.Fprintf(log, "FAIL ... %d more\n", len(p.failures)-show)
			break
		}
		fmt.Fprintf(log, "FAIL %s\n", f)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// settle waits for the goroutine count to fall back to base after a
// stack's teardown and returns how many are left over.
func settle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// errShort reports a phase that could not run its distinct jobs in time.
var errShort = errors.New("time limit reached before every distinct job ran")
