package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// shardedProblem is a CloneInto+LocalEval []int problem whose evaluation
// depends on every gene, for trajectory comparisons.
func shardedProblem(n int) FuncProblem[[]int] {
	return FuncProblem[[]int]{
		RandomFn: func(r *rng.RNG) []int { return r.Perm(n) },
		EvaluateFn: func(g []int) float64 {
			v := 0.0
			for i, x := range g {
				v += float64((i + 1) * (x + 1) % 17)
			}
			return v + 1
		},
		CloneFn:     func(g []int) []int { return append([]int(nil), g...) },
		CloneIntoFn: func(dst, src []int) []int { return append(dst[:0], src...) },
	}
}

func shardedOps() Operators[[]int] {
	swap := func(r *rng.RNG, g []int) {
		i, j := r.Intn(len(g)), r.Intn(len(g))
		g[i], g[j] = g[j], g[i]
	}
	cross := func(r *rng.RNG, a, b []int) ([]int, []int) {
		cut := r.Intn(len(a))
		c1 := append(append([]int(nil), a[:cut]...), b[cut:]...)
		c2 := append(append([]int(nil), b[:cut]...), a[cut:]...)
		return c1, c2
	}
	return Operators[[]int]{
		Select: func(r *rng.RNG, pop []Individual[[]int]) int { return r.Intn(len(pop)) },
		Cross:  cross,
		Mutate: swap,
		CrossInto: func() CrossoverInto[[]int] {
			return func(r *rng.RNG, a, b, d1, d2 []int) ([]int, []int) {
				cut := r.Intn(len(a))
				d1 = append(append(d1[:0], a[:cut]...), b[cut:]...)
				d2 = append(append(d2[:0], b[:cut]...), a[cut:]...)
				return d1, d2
			}
		},
	}
}

// runSharded runs a sharded engine for gens generations and returns the
// best objective, evaluation count and best genome.
func runSharded(t *testing.T, workers, pop, gens int) (float64, int64, []int) {
	t.Helper()
	eng := New(shardedProblem(12), rng.New(99), Config[[]int]{
		Pop: pop, Workers: workers,
		Ops:  shardedOps(),
		Term: Termination{MaxGenerations: gens},
	})
	defer eng.Close()
	res := eng.Run()
	return res.Best.Obj, res.Evaluations, res.Best.Genome
}

// TestShardedWorkerInvariance is the engine-level determinism contract:
// the shard decomposition and its RNG substreams depend only on Pop, so
// any worker count — the inline Workers 0 and 1 included — produces
// bit-identical results.
func TestShardedWorkerInvariance(t *testing.T) {
	baseObj, baseEvals, baseGenome := runSharded(t, 1, 40, 30)
	for _, w := range []int{0, 2, 3, 4, 8, 64} {
		obj, evals, genome := runSharded(t, w, 40, 30)
		if obj != baseObj || evals != baseEvals {
			t.Errorf("workers=%d: (%v, %d) != workers=1 (%v, %d)", w, obj, evals, baseObj, baseEvals)
		}
		for i := range genome {
			if genome[i] != baseGenome[i] {
				t.Errorf("workers=%d: best genome diverges at %d", w, i)
				break
			}
		}
	}
}

// TestShardedSharesInitialisation checks that an inline engine and a
// four-worker engine with the same seed build the same initial population:
// the shard substreams are split off only after initialisation.
func TestShardedSharesInitialisation(t *testing.T) {
	p := shardedProblem(10)
	mk := func(workers int) *Engine[[]int] {
		return New(p, rng.New(5), Config[[]int]{
			Pop: 20, Workers: workers, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 1},
		})
	}
	a, b := mk(0), mk(4)
	defer b.Close()
	for i := range a.Population() {
		ga, gb := a.Population()[i].Genome, b.Population()[i].Genome
		for k := range ga {
			if ga[k] != gb[k] {
				t.Fatalf("initial individual %d differs between inline and four-worker engines", i)
			}
		}
	}
}

// TestShardedImmigrationWorkerInvariance: Huang et al.'s generation
// composition runs in shard form — elites placed by the caller, crossover
// offspring and random immigrants drawn from the shard substreams — so it
// is bit-identical for any worker count, with fraction boundaries that cut
// through shards and crossover pairs.
func TestShardedImmigrationWorkerInvariance(t *testing.T) {
	run := func(workers int) Result[[]int] {
		eng := New(shardedProblem(8), rng.New(3), Config[[]int]{
			Pop: 22, Workers: workers, Ops: shardedOps(),
			Immigration: Immigration{Enabled: true, BestFrac: 0.15, CrossFrac: 0.6, RandomFrac: 0.25},
			Term:        Termination{MaxGenerations: 15},
		})
		defer eng.Close()
		return eng.Run()
	}
	base := run(0)
	for _, w := range []int{1, 4} {
		got := run(w)
		if got.Best.Obj != base.Best.Obj || got.Evaluations != base.Evaluations {
			t.Errorf("workers=%d: (%v,%d) != workers=0 (%v,%d)",
				w, got.Best.Obj, got.Evaluations, base.Best.Obj, base.Evaluations)
		}
		for i := range got.Best.Genome {
			if got.Best.Genome[i] != base.Best.Genome[i] {
				t.Errorf("workers=%d: best genome diverges at %d", w, i)
				break
			}
		}
	}
}

// TestShardedCloseRespawns: Close releases the workers; the next Step
// respawns them and the trajectory is unaffected.
func TestShardedCloseRespawns(t *testing.T) {
	mk := func(closeMidway bool) float64 {
		eng := New(shardedProblem(9), rng.New(17), Config[[]int]{
			Pop: 24, Workers: 4, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		for i := 0; i < 10; i++ {
			if closeMidway && i == 5 {
				eng.Close()
			}
			eng.Step()
		}
		return eng.Best().Obj
	}
	if a, b := mk(false), mk(true); a != b {
		t.Errorf("Close mid-run changed the trajectory: %v vs %v", a, b)
	}
}

// noSeamProblem hides every optional seam of a FuncProblem (CloneInto,
// LocalEvaluator, BatchEvaluator), leaving only the base Problem interface.
type noSeamProblem struct{ p FuncProblem[[]int] }

func (n noSeamProblem) Random(r *rng.RNG) []int  { return n.p.Random(r) }
func (n noSeamProblem) Evaluate(g []int) float64 { return n.p.Evaluate(g) }
func (n noSeamProblem) Clone(g []int) []int      { return n.p.Clone(g) }

// TestShardedBatchSeamTrajectoryInvariance: routing evaluation through the
// BatchEvalProblem seam (whole-shard batch calls after the variation loop)
// must not change a single trajectory — evaluation draws no randomness and
// batch closures return exactly the scalar objectives.
func TestShardedBatchSeamTrajectoryInvariance(t *testing.T) {
	run := func(p Problem[[]int], workers int) Result[[]int] {
		eng := New(p, rng.New(41), Config[[]int]{
			Pop: 36, Workers: workers, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 25},
		})
		defer eng.Close()
		return eng.Run()
	}
	fp := shardedProblem(11)
	for _, workers := range []int{0, 1, 4} {
		with, without := run(fp, workers), run(noSeamProblem{fp}, workers)
		if with.Best.Obj != without.Best.Obj || with.Evaluations != without.Evaluations {
			t.Errorf("workers=%d: batch seam changed trajectory: (%v,%d) vs (%v,%d)",
				workers, with.Best.Obj, with.Evaluations, without.Best.Obj, without.Evaluations)
		}
		for i := range with.Best.Genome {
			if with.Best.Genome[i] != without.Best.Genome[i] {
				t.Errorf("workers=%d: best genome diverges at %d", workers, i)
				break
			}
		}
	}
}

// TestShardedEvaluationSeam pins the engine's one evaluation seam: each
// executor builds exactly one batch closure at New, the initial population
// and every generation are evaluated through those closures only (never
// the shared scalar Evaluate), and every evaluation the engine counts is
// one genome a closure saw.
func TestShardedEvaluationSeam(t *testing.T) {
	for _, c := range []struct{ workers, executors int }{{0, 1}, {1, 1}, {4, 4}} {
		var factories, genomes, scalar atomic.Int64
		p := shardedProblem(10)
		eval := p.EvaluateFn
		p.EvaluateFn = func(g []int) float64 { scalar.Add(1); return eval(g) }
		p.BatchEvalFn = func() func([][]int, []float64) {
			factories.Add(1)
			return func(gs [][]int, out []float64) {
				genomes.Add(int64(len(gs)))
				for i, g := range gs {
					out[i] = eval(g)
				}
			}
		}
		e := New(p, rng.New(12), Config[[]int]{
			Pop: 30, Workers: c.workers, Ops: shardedOps(),
			Immigration: Immigration{Enabled: true, BestFrac: 0.1, CrossFrac: 0.7, RandomFrac: 0.2},
			Term:        Termination{MaxGenerations: 12},
		})
		res := e.Run()
		if got := factories.Load(); got != int64(c.executors) {
			t.Errorf("workers=%d: %d batch closures built, want %d", c.workers, got, c.executors)
		}
		if got := scalar.Load(); got != 0 {
			t.Errorf("workers=%d: engine called the shared Evaluate %d times", c.workers, got)
		}
		if got := genomes.Load(); got != res.Evaluations {
			t.Errorf("workers=%d: batch closures saw %d genomes, engine counts %d evaluations", c.workers, got, res.Evaluations)
		}
	}
}

// TestShardedStepAllocs is the zero-alloc guard of the pipeline: once
// warm, a full Step must stay within a small constant allocation budget
// independent of the population size and the worker count (bound <= 8
// allocs/op).
func TestShardedStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	steps := func(workers, pop int, observe func(GenStats)) float64 {
		eng := New(shardedProblem(15), rng.New(8), Config[[]int]{
			Pop: pop, Workers: workers, Ops: shardedOps(),
			Term:         Termination{MaxGenerations: 1 << 30},
			OnGeneration: observe,
		})
		defer eng.Close()
		for i := 0; i < 60; i++ { // warm the free lists and spawn the workers
			eng.Step()
		}
		return testing.AllocsPerRun(50, eng.Step)
	}
	for _, workers := range []int{0, 4} {
		for _, pop := range []int{64, 256} {
			avg := steps(workers, pop, nil)
			if avg > 8 {
				t.Errorf("Workers=%d Pop=%d: Step allocates %.1f/op, want <= 8", workers, pop, avg)
			}
			// An observed step (every served job has a generation hook)
			// must cost no allocation the unobserved one does not.
			var seen int
			observed := steps(workers, pop, func(GenStats) { seen++ })
			if seen == 0 {
				t.Fatalf("Workers=%d Pop=%d: OnGeneration never called", workers, pop)
			}
			if observed > avg {
				t.Errorf("Workers=%d Pop=%d: observed Step allocates %.2f/op, unobserved %.2f/op", workers, pop, observed, avg)
			}
		}
	}
}

// TestRecordMatchesSummarize: the per-generation mean and std are
// stats.Summarize's, bit for bit.
func TestRecordMatchesSummarize(t *testing.T) {
	for _, pop := range []int{2, 7, 64} {
		var eng *Engine[[]int]
		var got []GenStats
		var want []stats.Summary
		eng = New(shardedProblem(15), rng.New(3), Config[[]int]{
			Pop: pop, Ops: shardedOps(),
			Term: Termination{MaxGenerations: 20},
			OnGeneration: func(gs GenStats) {
				objs := make([]float64, 0, len(eng.Population()))
				for _, ind := range eng.Population() {
					objs = append(objs, ind.Obj)
				}
				got = append(got, gs)
				want = append(want, stats.Summarize(objs))
			},
		})
		eng.Run()
		if len(got) == 0 {
			t.Fatalf("Pop=%d: no generations observed", pop)
		}
		for i, gs := range got {
			if gs.MeanObj != want[i].Mean || gs.StdObj != want[i].Std {
				t.Errorf("Pop=%d gen %d: mean/std %v/%v, Summarize %v/%v",
					pop, gs.Generation, gs.MeanObj, gs.StdObj, want[i].Mean, want[i].Std)
			}
		}
	}
}
