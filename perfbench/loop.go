package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/solver"
)

// jobRecord is one timed job.
type jobRecord struct {
	index int // position in the run's job sequence
	spec  solver.Spec
	ms    float64 // submit (or Solve call) to terminal result
	// start is when the job was sent; cycle runs from there to its
	// caller's next send (or the caller's exit), checks included, so a
	// caller's cycles tile its share of the timed wall.
	start time.Time
	cycle time.Duration
	out   outcome
	miss  string // why the job failed its checks; "" when it passed
}

// jobSeed derives the seed of distinct job k of a run from the run seed
// (splitmix64), so the program only ever sees the resulting Specs.
func jobSeed(runSeed uint64, k int) uint64 {
	x := runSeed + uint64(k+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// loopPlan bounds one closed-loop phase: it runs for at least minTime
// and at least minJobs jobs, and starts no job after hardStop.
type loopPlan struct {
	seed     uint64
	minTime  time.Duration
	minJobs  int
	hardStop time.Time
}

// closedLoop runs the workload's callers, each sending its next job only
// after the previous one finished, and returns every job in sequence
// order with the timed wall.
func closedLoop(w *workload, tgt target, tr *tracer, p loopPlan) ([]jobRecord, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var jobs []jobRecord
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []jobRecord
			for {
				i := int(next.Add(1) - 1)
				now := time.Now()
				if n := len(mine); n > 0 {
					mine[n-1].cycle = now.Sub(mine[n-1].start)
				}
				if now.After(p.hardStop) || (i >= p.minJobs && now.Sub(start) >= p.minTime) {
					break
				}
				spec := w.spec(jobSeed(p.seed, i%w.pool), w.gens)
				mine = append(mine, runJob(w, tgt, tr, c, i, spec))
			}
			mu.Lock()
			jobs = append(jobs, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].index < jobs[b].index })
	return jobs, wall
}

// runJob runs and checks one job; with a tracer it records the job's root
// span and the solver's queue and run spans from the job's timestamps.
func runJob(w *workload, tgt target, tr *tracer, c, i int, spec solver.Spec) jobRecord {
	ctx := context.Background()
	var ref traceRef
	if tr != nil {
		ref = traceRef{trace: uint64(i) + 1, span: tr.newID()}
		ctx = withRef(ctx, ref)
		tr.current.Store(&ref)
	}
	t0 := time.Now()
	out, err := tgt.run(ctx, c, spec)
	elapsed := time.Since(t0)
	rec := jobRecord{index: i, spec: spec, start: t0, ms: float64(elapsed.Nanoseconds()) / 1e6, out: out, miss: w.check(out, err)}
	if tr != nil {
		st := out.status
		tr.add(span{Trace: ref.trace, ID: ref.span, Name: "job", Job: st.ID, Start: tr.at(t0), End: tr.at(t0.Add(elapsed))})
		if !st.Started.IsZero() && !st.Finished.IsZero() {
			tr.add(span{Trace: ref.trace, Parent: ref.span, Name: "solver.queue", Job: st.ID, Start: tr.at(st.Submitted), End: tr.at(st.Started)})
			tr.add(span{Trace: ref.trace, Parent: ref.span, Name: "solver.run", Job: st.ID, Start: tr.at(st.Started), End: tr.at(st.Finished)})
		}
	}
	return rec
}

// check is the per-job correctness gate.
func (w *workload) check(o outcome, err error) string {
	if err != nil {
		return err.Error()
	}
	res := o.res
	switch {
	case res == nil:
		return "no result"
	case !o.inProcess && o.status.State != solver.JobDone:
		return fmt.Sprintf("job state %s: %s", o.status.State, o.status.Error)
	case res.Canceled:
		return "job cancelled"
	case res.Reference != w.optimum:
		return fmt.Sprintf("reference %v, want the proven optimum %v", res.Reference, w.optimum)
	case res.BestObjective < w.optimum || res.Gap < 0:
		return fmt.Sprintf("objective %v (gap %v) beats the proven optimum %v", res.BestObjective, res.Gap, w.optimum)
	case math.Abs(res.Gap-(res.BestObjective-w.optimum)/w.optimum) > 1e-9:
		return fmt.Sprintf("gap %v does not match objective %v", res.Gap, res.BestObjective)
	}
	if o.inProcess {
		if res.Schedule == nil {
			return "no schedule"
		}
		if err := res.Schedule.Validate(); err != nil {
			return fmt.Sprintf("schedule fails Table I: %v", err)
		}
		if float64(res.Schedule.Makespan()) != res.BestObjective {
			return fmt.Sprintf("schedule makespan %d, result says %v", res.Schedule.Makespan(), res.BestObjective)
		}
	}
	return ""
}

// checkReplay fails every job whose objective differs from the first run
// of the same seed in this phase (earlier records win), and returns the
// objectives of the first pool jobs in order.
func checkReplay(jobs []jobRecord, pool int) []float64 {
	first := make([]float64, pool)
	seen := make([]bool, pool)
	for i := range jobs {
		j := &jobs[i]
		if j.miss != "" {
			continue
		}
		k := j.index % pool
		obj := j.out.res.BestObjective
		if !seen[k] {
			first[k], seen[k] = obj, true
		} else if obj != first[k] {
			j.miss = fmt.Sprintf("objective %v differs from %v of the same seed earlier in the run", obj, first[k])
		}
	}
	return first
}

// digest fingerprints a run's per-seed objectives, so two runs of one
// seed can be compared for replay.
func digest(objs []float64) string {
	h := fnv.New64a()
	for _, o := range objs {
		fmt.Fprintf(h, "%v,", o)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// phase summarises one closed-loop phase.
type phase struct {
	jobs     []jobRecord
	failed   int
	passed   []jobRecord
	latency  []float64 // ms, jobs that passed their checks
	meanGap  float64   // over the distinct jobs 0..pool-1
	objs     []float64
	failures []string
}

func summarise(w *workload, jobs []jobRecord) phase {
	objs := checkReplay(jobs, w.pool)
	p := phase{jobs: jobs, objs: objs}
	gaps, n := 0.0, 0
	for _, j := range jobs {
		if j.miss != "" {
			p.failed++
			spec, _ := json.Marshal(j.spec)
			p.failures = append(p.failures, fmt.Sprintf("job %d: %s; spec %s", j.index, j.miss, spec))
			continue
		}
		p.passed = append(p.passed, j)
		p.latency = append(p.latency, j.ms)
		if j.index < w.pool {
			gaps += j.out.res.Gap
			n++
		}
	}
	p.meanGap = ratio(gaps, float64(n))
	return p
}
