package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
	"repro/internal/solver"
)

// The decode, op and core layers run inside the solver, out of the
// benchmark's reach, so the traced run replays the workload's engine
// shape directly: the same Problem and Operators the solver builds for a
// seq-encoded job shop, handed to core.New and stepped for one job's
// generations. The replay is deterministic by seed, so an untraced and a
// traced replay of one seed do the same work step for step.

// engineShape is the engine one job of a workload runs.
type engineShape struct {
	instance string
	pop      int
	// workers is core.Config.Workers as the workload runs it: >0 is the
	// sharded pipeline, 0 the master path (serial jobs and island demes).
	workers int
	// demes is the number of such engines per job (the island count).
	demes int
}

// Operator kinds the traced replay times, in the order their child spans
// are laid out inside a step span.
const (
	kSelect = iota
	kCross
	kMutate
	kDecode
	nKinds
)

var kindNames = [nKinds]string{"op.select", "op.cross", "op.mutate", "decode.batch"}

// opClock accumulates the time spent inside the wrapped Problem and
// Operators per kind, with the number of timed calls and of genomes
// evaluated. Wrapped calls may run on pipeline workers, hence atomics.
type opClock struct {
	ns, calls [nKinds]atomic.Int64
	genomes   atomic.Int64
}

func (c *opClock) since(k int, t0 time.Time) {
	c.ns[k].Add(int64(time.Since(t0)))
	c.calls[k].Add(1)
}

// wrapProblem times the evaluation seams of p: its batch, worker-local and
// plain evaluators. Every other capability passes through unchanged, so
// the engine takes the same paths and the trajectory is unchanged.
func wrapProblem(p core.Problem[[]int], c *opClock) core.Problem[[]int] {
	timed := func(eval func([]int) float64) func([]int) float64 {
		return func(g []int) float64 {
			t0 := time.Now()
			v := eval(g)
			c.since(kDecode, t0)
			c.genomes.Add(1)
			return v
		}
	}
	fp := core.FuncProblem[[]int]{RandomFn: p.Random, CloneFn: p.Clone, EvaluateFn: timed(p.Evaluate)}
	if ci, ok := p.(core.CloneIntoProblem[[]int]); ok {
		fp.CloneIntoFn = ci.CloneInto
	}
	if lp, ok := p.(core.LocalEvalProblem[[]int]); ok {
		fp.LocalEvalFn = func() func([]int) float64 { return timed(lp.LocalEvaluator()) }
	}
	if bp, ok := p.(core.BatchEvalProblem[[]int]); ok {
		fp.BatchEvalFn = func() func([][]int, []float64) {
			eval := bp.BatchEvaluator()
			return func(gs [][]int, out []float64) {
				t0 := time.Now()
				eval(gs, out)
				c.since(kDecode, t0)
				c.genomes.Add(int64(len(gs)))
			}
		}
	}
	return fp
}

// wrapOps times selection, crossover and mutation.
func wrapOps(ops core.Operators[[]int], c *opClock) core.Operators[[]int] {
	out := core.Operators[[]int]{
		Select: func(r *rng.RNG, pop []core.Individual[[]int]) int {
			t0 := time.Now()
			i := ops.Select(r, pop)
			c.since(kSelect, t0)
			return i
		},
		Cross: func(r *rng.RNG, a, b []int) ([]int, []int) {
			t0 := time.Now()
			x, y := ops.Cross(r, a, b)
			c.since(kCross, t0)
			return x, y
		},
		Mutate: func(r *rng.RNG, g []int) {
			t0 := time.Now()
			ops.Mutate(r, g)
			c.since(kMutate, t0)
		},
	}
	if ops.CrossInto != nil {
		out.CrossInto = func() core.CrossoverInto[[]int] {
			cross := ops.CrossInto()
			return func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int) {
				t0 := time.Now()
				x, y := cross(r, a, b, d1, d2)
				c.since(kCross, t0)
				return x, y
			}
		}
	}
	return out
}

// newEngine builds the shape's engine for one seed, optionally wrapped.
func newEngine(in *shop.Instance, s engineShape, workers int, seed uint64, c *opClock) *core.Engine[[]int] {
	prob, ops := shopga.JobShopProblem(in, shop.Makespan), shopga.SeqOps(in)
	if c != nil {
		prob, ops = wrapProblem(prob, c), wrapOps(ops, c)
	}
	return core.New(prob, rng.New(seed), core.Config[[]int]{
		Pop: s.pop, Ops: ops, Workers: workers,
		Term: core.Termination{MaxGenerations: 1 << 30},
	})
}

// stepTimes steps untraced engines of the shape for gens generations per
// seed and returns every step's duration (ns) and the heap allocations
// per step.
func stepTimes(in *shop.Instance, s engineShape, workers, gens int, seeds []uint64) ([]float64, float64) {
	steps := make([]float64, 0, gens*len(seeds))
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for _, seed := range seeds {
		eng := newEngine(in, s, workers, seed, nil)
		runtime.ReadMemStats(&m0)
		for g := 0; g < gens; g++ {
			t0 := time.Now()
			eng.Step()
			steps = append(steps, float64(time.Since(t0)))
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		eng.Close()
	}
	return steps, float64(mallocs) / float64(len(steps))
}

// wrapperCost times a wrapped empty operator against the bare one: inside
// is what the wrapper measures around an empty call, total what wrapping
// adds to each call in all.
func wrapperCost() (inside, total float64) {
	const n = 1 << 16
	bare := core.Operators[[]int]{Mutate: func(*rng.RNG, []int) {}}
	var c opClock
	wrapped := wrapOps(bare, &c)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		bare.Mutate(nil, nil)
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		wrapped.Mutate(nil, nil)
	}
	t2 := time.Now()
	inside = float64(c.ns[kMutate].Load()) / n
	total = float64(t2.Sub(t1)-t1.Sub(t0)) / n
	return inside, max(total, inside)
}

// layerReplay measures the decode, op and core layers for a workload shape.
func layerReplay(tr *tracer, s engineShape, gens int, seed uint64) (map[string]float64, error) {
	in, err := solver.BuildInstance(solver.ProblemSpec{Instance: s.instance})
	if err != nil {
		return nil, err
	}
	seeds := []uint64{jobSeed(seed, 0), jobSeed(seed, 1), jobSeed(seed, 2)}
	m := map[string]float64{}

	// Untraced steps at the workload's own width give the step time and
	// allocations; a sharded shape is also stepped at one worker for the
	// scaling ratio.
	stepsW, allocs := stepTimes(in, s, s.workers, gens, seeds)
	m["core.step_ns"] = median(stepsW)
	m["core.step_allocs"] = allocs
	splitWorkers := 0
	if s.workers > 0 {
		splitWorkers = 1
		steps1, _ := stepTimes(in, s, 1, gens, seeds)
		m["core.worker_speedup"] = median(steps1) / median(stepsW)
	}

	// Traced replay of the first seed at one worker (or on the master
	// path), where the wrapped calls run one at a time and never overlap.
	// Each step records a core.step span and, laid end to end inside it,
	// one child span per operator kind holding the step's summed call
	// time. Both are net of the wrapper's own cost, calibrated on an
	// empty operator, so a step's self time is what the engine spends
	// outside the wrapped calls (elitism sort, dispatch, cloning).
	inside, overhead := wrapperCost()
	var c opClock
	eng := newEngine(in, s, splitWorkers, seeds[0], &c)
	defer eng.Close()
	initGenomes := c.genomes.Load()
	var prevNs, prevCalls [nKinds]int64
	for k := range prevNs {
		prevNs[k], prevCalls[k] = c.ns[k].Load(), c.calls[k].Load()
	}
	var net [nKinds]float64
	steps, selfs := make([]float64, gens), make([]float64, gens)
	trace := tr.newID()
	for g := 0; g < gens; g++ {
		t0 := time.Now()
		eng.Step()
		wall := float64(time.Since(t0))
		var d [nKinds]float64
		children, calls := 0.0, int64(0)
		for k := range prevNs {
			ns, n := c.ns[k].Load(), c.calls[k].Load()
			d[k] = max(float64(ns-prevNs[k])-inside*float64(n-prevCalls[k]), 0)
			calls += n - prevCalls[k]
			prevNs[k], prevCalls[k] = ns, n
			net[k] += d[k]
			children += d[k]
		}
		steps[g] = max(wall-overhead*float64(calls), children)
		selfs[g] = steps[g] - children
		at := tr.at(t0)
		step := span{Trace: trace, ID: tr.newID(), Name: "core.step", Start: at, End: at + int64(steps[g])}
		tr.add(step)
		for k, off := range d {
			tr.add(span{Trace: trace, Parent: step.ID, Name: kindNames[k], Start: at, End: at + int64(off)})
			at += int64(off)
		}
	}
	total := sum(steps)
	m["decode.ns_per_genome"] = ratio(net[kDecode], float64(c.genomes.Load()-initGenomes))
	m["decode.genomes_per_job"] = float64(c.genomes.Load()) * float64(s.demes)
	m["op.select_ns_per_pick"] = ratio(net[kSelect], float64(c.calls[kSelect].Load()))
	m["op.cross_ns_per_child"] = ratio(net[kCross], 2*float64(c.calls[kCross].Load()))
	m["op.mutate_ns_per_child"] = ratio(net[kMutate], float64(c.calls[kMutate].Load()))
	m["core.step_self_ns"] = median(selfs)
	m["core.op_share"] = (net[kSelect] + net[kCross] + net[kMutate]) / total
	m["core.decode_share"] = net[kDecode] / total
	m["core.self_share"] = sum(selfs) / total
	return m, nil
}
