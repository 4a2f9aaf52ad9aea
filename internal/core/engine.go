package core

import (
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Termination bundles the stopping criteria of the engine; any satisfied
// criterion stops the run. Zero values disable a criterion (except
// MaxGenerations, which defaults to 100 when everything is disabled).
type Termination struct {
	MaxGenerations int           // stop after this many generations
	MaxEvaluations int64         // stop once this many objective evaluations were spent
	MaxStagnation  int           // stop after this many generations without improvement
	Target         float64       // stop once best objective <= Target ...
	TargetSet      bool          // ... if TargetSet
	WallClock      time.Duration // stop after this much real time

	// Stop, when set, is polled between generations; returning true stops
	// the run. It is the seam external cancellation (a context's Done
	// channel) threads through, and must be safe to call concurrently: the
	// parallel models poll it from every island/partition goroutine.
	Stop func() bool
}

// Immigration configures Huang et al.'s generation scheme [24]: the next
// generation is composed of BestFrac elites, CrossFrac crossover offspring
// and RandomFrac fresh random immigrants (fractions must sum to 1).
type Immigration struct {
	Enabled    bool
	BestFrac   float64
	CrossFrac  float64
	RandomFrac float64
}

// GenStats summarises one generation for convergence-series experiments.
type GenStats struct {
	Generation  int
	BestObj     float64 // best of the current population
	BestSoFar   float64
	MeanObj     float64
	StdObj      float64
	Evaluations int64
}

// Config parameterises an Engine.
type Config[G any] struct {
	Pop           int     // population size (default 50, rounded up to even)
	CrossoverRate float64 // probability a selected pair recombines (default 0.9)
	MutationRate  float64 // probability each child mutates (default 0.2)
	Elite         int     // individuals preserved per generation (default 1)
	Ops           Operators[G]
	Fitness       Fitness // objective->fitness transform (default InverseFitness)
	Term          Termination
	Immigration   Immigration
	Evaluator     Evaluator[G]   // default SerialEvaluator
	OnGeneration  func(GenStats) // optional per-generation hook
	RecordHistory bool           // keep GenStats of every generation in Result

	// Workers > 0 selects the sharded generation pipeline: Step partitions
	// the next generation into fixed-size shards and Workers persistent
	// goroutines each run selection, crossover, mutation AND evaluation for
	// whole shards end-to-end, drawing randomness from per-shard substreams
	// (rng.SplitN) instead of the master stream. Results are bit-identical
	// for any Workers >= 1 — the shard decomposition and its substreams
	// depend only on Pop — but differ from the Workers == 0 master-path
	// trajectory, which remains the survey's Table II reference. On the
	// sharded path Evaluator is only used for the initial population:
	// generation evaluation runs inside the shard workers (through the
	// problem's LocalEvaluator seam when present), so a custom Evaluator
	// that must observe every evaluation belongs with Workers == 0. Sharded
	// engines require scheduling-safe operators (every bundled selection
	// except op.SUS; all bundled crossovers/mutations) and should be
	// Close()d when abandoned before Run completes. Immigration-mode
	// generation composition is a master-path feature: enabling it falls
	// back to the master path with Evaluator-parallel evaluation.
	Workers int
}

// Result reports the outcome of a Run.
type Result[G any] struct {
	Best        Individual[G]
	Generations int
	Evaluations int64
	Elapsed     time.Duration
	History     []GenStats
}

// Engine runs the Table II loop. It is deterministic given the seed stream
// passed to New; evaluators must not consume engine randomness.
type Engine[G any] struct {
	prob Problem[G]
	cfg  Config[G]
	rng  *rng.RNG

	pop        []Individual[G]
	gen        int
	evals      int64
	best       Individual[G]
	bestValid  bool
	stagnation int
	started    time.Time
	history    []GenStats

	// Generation double-buffering: Step writes the next generation into
	// spare and swaps, so the per-generation individual, genome and
	// objective slices are allocated once and reused for the whole run.
	spare     []Individual[G]
	children  []G
	childObjs []float64

	// Genome recycling through the CloneIntoProblem seam: free holds the
	// dead genomes of the previous generation, swapped out at the end of
	// the last Step (nobody can reference them any more — elites and the
	// incumbent best are always cloned, migration clones before
	// injecting), and cloneInto reuses their capacity for new copies.
	free      []G
	cloneInto func(dst, src G) G

	// statBuf is the reused objective scratch of record(), so observed
	// runs (OnGeneration, RecordHistory) stay allocation-free per
	// generation like unobserved ones.
	statBuf []float64

	// ordA, ordB are the reused index buffers of the elitism/immigration
	// selections, keeping the per-generation ranking allocation-free.
	ordA, ordB []int

	// localEvals/localBatch/batchEvals/batchSpan cache the optional
	// evaluation seams (LocalEvalProblem / LocalBatchEvaluator /
	// BatchEvalProblem / BatchSpanEvaluator) detected at New, so evalBatch
	// does not re-assert interfaces per generation. The caches double as
	// the identity tokens a shared evaluator keys its per-worker closures
	// on (one cache per engine, hence per problem). Routing priority is
	// batch span > local > plain EvalAll; all three produce identical
	// objective values.
	localEvals *LocalEvals[G]
	localBatch LocalBatchEvaluator[G]
	batchEvals *BatchEvals[G]
	batchSpan  BatchSpanEvaluator[G]

	// sharded is the Workers > 0 pipeline state (see sharded.go); nil for
	// master-path engines.
	sharded *shardedState[G]
}

// New creates an engine, applies config defaults, and evaluates the initial
// random population (the Initialize() step).
func New[G any](p Problem[G], r *rng.RNG, cfg Config[G]) *Engine[G] {
	if p == nil {
		panic("core: nil problem")
	}
	if r == nil {
		panic("core: nil rng")
	}
	if cfg.Pop <= 0 {
		cfg.Pop = 50
	}
	if cfg.Pop%2 == 1 {
		cfg.Pop++
	}
	if cfg.CrossoverRate == 0 {
		cfg.CrossoverRate = 0.9
	}
	if cfg.MutationRate == 0 {
		cfg.MutationRate = 0.2
	}
	if cfg.Elite == 0 {
		cfg.Elite = 1
	}
	if cfg.Elite >= cfg.Pop {
		cfg.Elite = cfg.Pop - 1
	}
	if cfg.Fitness == nil {
		cfg.Fitness = InverseFitness()
	}
	if cfg.Evaluator == nil {
		cfg.Evaluator = SerialEvaluator[G]{}
	}
	if cfg.Ops.Select == nil || cfg.Ops.Cross == nil || cfg.Ops.Mutate == nil {
		panic("core: Config.Ops must provide Select, Cross and Mutate")
	}
	if cfg.Term.MaxGenerations == 0 && cfg.Term.MaxEvaluations == 0 &&
		cfg.Term.MaxStagnation == 0 && !cfg.Term.TargetSet && cfg.Term.WallClock == 0 {
		cfg.Term.MaxGenerations = 100
	}
	if cfg.Immigration.Enabled {
		sum := cfg.Immigration.BestFrac + cfg.Immigration.CrossFrac + cfg.Immigration.RandomFrac
		if sum < 0.999 || sum > 1.001 {
			panic(fmt.Sprintf("core: immigration fractions sum to %v, want 1", sum))
		}
	}
	e := &Engine[G]{prob: p, cfg: cfg, rng: r, started: time.Now()}
	if ci, ok := p.(CloneIntoProblem[G]); ok {
		e.cloneInto = ci.CloneInto
	}
	if lep, ok := p.(LocalEvalProblem[G]); ok {
		e.localEvals = NewLocalEvals(lep.LocalEvaluator)
	}
	if lbe, ok := cfg.Evaluator.(LocalBatchEvaluator[G]); ok {
		e.localBatch = lbe
	}
	if bep, ok := p.(BatchEvalProblem[G]); ok {
		e.batchEvals = NewBatchEvals(bep.BatchEvaluator)
	}
	if bse, ok := cfg.Evaluator.(BatchSpanEvaluator[G]); ok {
		e.batchSpan = bse
	}
	e.pop = make([]Individual[G], cfg.Pop)
	genomes := make([]G, cfg.Pop)
	for i := range e.pop {
		genomes[i] = p.Random(r)
	}
	objs := make([]float64, cfg.Pop)
	e.evalBatch(genomes, objs)
	for i := range e.pop {
		e.pop[i] = Individual[G]{Genome: genomes[i], Obj: objs[i], Fit: cfg.Fitness(objs[i])}
	}
	// Seed the per-generation scratch slices with the initialisation
	// buffers; Step reuses them for the rest of the run.
	e.children = genomes[:0]
	e.childObjs = objs[:0]
	e.refreshBest()
	// The shard decomposition and its RNG substreams are derived after the
	// initial population, so sharded runs share their initialisation with
	// the master path, and depend only on Pop — never on Workers.
	if cfg.Workers > 0 {
		e.sharded = newShardedState(e, cfg.Workers)
	}
	return e
}

func (e *Engine[G]) evalBatch(genomes []G, out []float64) {
	switch {
	case e.batchSpan != nil && e.batchEvals != nil:
		e.batchSpan.EvalAllBatches(genomes, e.prob.Evaluate, e.batchEvals, out)
	case e.localBatch != nil && e.localEvals != nil:
		e.localBatch.EvalAllLocal(genomes, e.prob.Evaluate, e.localEvals, out)
	default:
		e.cfg.Evaluator.EvalAll(genomes, e.prob.Evaluate, out)
	}
	e.evals += int64(len(genomes))
}

func (e *Engine[G]) refreshBest() {
	improved := false
	for _, ind := range e.pop {
		if !e.bestValid || ind.Obj < e.best.Obj {
			// The incumbent best genome is engine-owned (Best() hands out
			// clones), so its capacity can be recycled for the new copy.
			g := e.best.Genome
			if e.cloneInto != nil {
				g = e.cloneInto(g, ind.Genome)
			} else {
				g = e.prob.Clone(ind.Genome)
			}
			e.best = Individual[G]{Genome: g, Obj: ind.Obj, Fit: ind.Fit}
			e.bestValid = true
			improved = true
		}
	}
	if improved {
		e.stagnation = 0
	} else {
		e.stagnation++
	}
}

// cloneGenome deep-copies src for the next generation, reusing the capacity
// of a retired genome when the problem supports CloneInto.
func (e *Engine[G]) cloneGenome(src G) G {
	if e.cloneInto != nil && len(e.free) > 0 {
		dst := e.free[len(e.free)-1]
		e.free = e.free[:len(e.free)-1]
		return e.cloneInto(dst, src)
	}
	return e.prob.Clone(src)
}

// Generation returns the current generation counter.
func (e *Engine[G]) Generation() int { return e.gen }

// Evaluations returns the number of objective evaluations spent so far.
func (e *Engine[G]) Evaluations() int64 { return e.evals }

// Best returns a copy of the best individual found so far.
func (e *Engine[G]) Best() Individual[G] {
	return Individual[G]{Genome: e.prob.Clone(e.best.Genome), Obj: e.best.Obj, Fit: e.best.Fit}
}

// Stagnation returns the number of consecutive generations without
// improvement of the best objective.
func (e *Engine[G]) Stagnation() int { return e.stagnation }

// Population returns the live population slice. Callers (migration
// operators) may replace individuals but must keep Obj and Fit consistent.
// The slice and the genomes it references are valid only until the next
// Step: the engine double-buffers generations and recycles retired genome
// storage, so callers that need an individual beyond the current generation
// must Clone its genome.
func (e *Engine[G]) Population() []Individual[G] { return e.pop }

// SetPopulation replaces the population, e.g. when islands merge.
func (e *Engine[G]) SetPopulation(pop []Individual[G]) {
	if len(pop) == 0 {
		panic("core: empty population")
	}
	e.pop = pop
	e.refreshBest()
}

// MakeIndividual evaluates a genome and wraps it with consistent fitness,
// counting the evaluation. It is the entry point migration code uses to
// inject foreign genomes.
func (e *Engine[G]) MakeIndividual(g G) Individual[G] {
	obj := e.prob.Evaluate(g)
	e.evals++
	return Individual[G]{Genome: g, Obj: obj, Fit: e.cfg.Fitness(obj)}
}

// RNG exposes the engine's random stream for migration policies that must
// stay deterministic with respect to the engine.
func (e *Engine[G]) RNG() *rng.RNG { return e.rng }

// Problem returns the engine's problem.
func (e *Engine[G]) Problem() Problem[G] { return e.prob }

// Done reports whether any termination criterion is satisfied.
func (e *Engine[G]) Done() bool {
	t := &e.cfg.Term
	if t.MaxGenerations > 0 && e.gen >= t.MaxGenerations {
		return true
	}
	if t.MaxEvaluations > 0 && e.evals >= t.MaxEvaluations {
		return true
	}
	if t.MaxStagnation > 0 && e.stagnation >= t.MaxStagnation {
		return true
	}
	if t.TargetSet && e.bestValid && e.best.Obj <= t.Target {
		return true
	}
	if t.WallClock > 0 && time.Since(e.started) >= t.WallClock {
		return true
	}
	if t.Stop != nil && t.Stop() {
		return true
	}
	return false
}

// Snapshot is a resumable copy of an engine's mid-run state: the live
// population with its cached objectives, the incumbent best, the loop
// counters and every random stream the next Step would draw from. Feeding
// it to Restore on a freshly built engine with the same configuration
// replays the run bit-identically from this point — the checkpoint seam
// behind the solver's durable jobs.
type Snapshot[G any] struct {
	Pop         []Individual[G]
	Best        Individual[G]
	HasBest     bool
	Generation  int
	Evaluations int64
	Stagnation  int
	// RNG is the master stream's state; Shards holds the per-shard
	// substream states of the Workers > 0 pipeline (nil on the master
	// path). The shard decomposition depends only on Pop, so a snapshot
	// restores into any engine with the same Pop regardless of Workers —
	// but a master-path snapshot cannot restore into a sharded engine or
	// vice versa, because the two draw from different stream layouts.
	RNG    rng.State
	Shards []rng.State
}

// Snapshot captures the engine's current resumable state. Genomes are
// deep-copied, so the snapshot stays valid across later Steps. It must not
// be called concurrently with Step (call it from OnGeneration, or between
// Steps, like every other engine accessor).
func (e *Engine[G]) Snapshot() Snapshot[G] {
	s := Snapshot[G]{
		Pop:         make([]Individual[G], len(e.pop)),
		HasBest:     e.bestValid,
		Generation:  e.gen,
		Evaluations: e.evals,
		Stagnation:  e.stagnation,
		RNG:         e.rng.State(),
	}
	for i, ind := range e.pop {
		s.Pop[i] = Individual[G]{Genome: e.prob.Clone(ind.Genome), Obj: ind.Obj, Fit: ind.Fit}
	}
	if e.bestValid {
		s.Best = Individual[G]{Genome: e.prob.Clone(e.best.Genome), Obj: e.best.Obj, Fit: e.best.Fit}
	}
	if e.sharded != nil {
		s.Shards = make([]rng.State, len(e.sharded.rngs))
		for i, r := range e.sharded.rngs {
			s.Shards[i] = r.State()
		}
	}
	return s
}

// Restore replaces the engine's state with a snapshot taken from an engine
// of the same configuration: population and incumbent best (genomes are
// deep-copied in; fitness is recomputed through the engine's own transform,
// so snapshots never need to carry it), generation/evaluation/stagnation
// counters, and the random streams. The engine's wall clock restarts at
// Restore — callers that budget wall time across restarts shrink the
// budget by the time already consumed instead (the serving layer does).
// Restore fails, leaving the engine unchanged, when the snapshot's shape
// does not fit: wrong population size, or a shard-stream layout that does
// not match this engine's execution path.
func (e *Engine[G]) Restore(s Snapshot[G]) error {
	if len(s.Pop) != e.cfg.Pop {
		return fmt.Errorf("core: restore: snapshot population %d, engine expects %d", len(s.Pop), e.cfg.Pop)
	}
	if !s.HasBest {
		return fmt.Errorf("core: restore: snapshot has no incumbent best")
	}
	if e.sharded != nil {
		if len(s.Shards) != len(e.sharded.rngs) {
			return fmt.Errorf("core: restore: snapshot has %d shard streams, sharded engine expects %d", len(s.Shards), len(e.sharded.rngs))
		}
	} else if len(s.Shards) != 0 {
		return fmt.Errorf("core: restore: snapshot has %d shard streams, master-path engine expects none", len(s.Shards))
	}
	pop := make([]Individual[G], len(s.Pop))
	for i, ind := range s.Pop {
		pop[i] = Individual[G]{Genome: e.prob.Clone(ind.Genome), Obj: ind.Obj, Fit: e.cfg.Fitness(ind.Obj)}
	}
	e.pop = pop
	e.best = Individual[G]{Genome: e.prob.Clone(s.Best.Genome), Obj: s.Best.Obj, Fit: e.cfg.Fitness(s.Best.Obj)}
	e.bestValid = true
	e.gen = s.Generation
	e.evals = s.Evaluations
	e.stagnation = s.Stagnation
	e.rng.SetState(s.RNG)
	if e.sharded != nil {
		for i := range e.sharded.rngs {
			e.sharded.rngs[i].SetState(s.Shards[i])
		}
	}
	// The discarded initial population and the double-buffer scratch hold
	// genomes nothing references any more; drop them so the recycling paths
	// start clean rather than resurrecting pre-restore storage.
	e.spare = nil
	e.children = nil
	e.childObjs = nil
	e.free = nil
	return nil
}

// Step runs one generation: Selection, Crossover, Mutation, Evaluation,
// elitist replacement (Table II lines 4-7). The next generation is written
// into a double buffer that alternates with the current population, so the
// per-generation slices are allocated once per engine, not once per Step.
// With Config.Workers > 0 the whole generation is executed by the sharded
// pipeline instead (see sharded.go); immigration-mode composition stays on
// the master path.
func (e *Engine[G]) Step() {
	if e.sharded != nil && !e.cfg.Immigration.Enabled {
		e.stepSharded()
		return
	}
	e.gen++
	n := e.cfg.Pop
	// Harvest the genomes of the generation swapped out at the end of the
	// previous Step: their slots in e.spare are about to be overwritten and
	// no live reference to them can remain (elites and the incumbent best
	// are always cloned, and migration code clones before injecting).
	if e.cloneInto != nil {
		e.free = e.free[:0]
		for i := range e.spare {
			e.free = append(e.free, e.spare[i].Genome)
		}
	}
	next := e.spare
	if cap(next) < n {
		next = make([]Individual[G], n)
	}
	next = next[:n]

	children := e.children[:0]
	nElite := 0
	if e.cfg.Immigration.Enabled {
		nElite, children = e.immigrationOffspring(next, children)
	} else {
		for len(children) < n {
			i1 := e.cfg.Ops.Select(e.rng, e.pop)
			i2 := e.cfg.Ops.Select(e.rng, e.pop)
			var c1, c2 G
			if e.rng.Bool(e.cfg.CrossoverRate) {
				c1, c2 = e.cfg.Ops.Cross(e.rng, e.pop[i1].Genome, e.pop[i2].Genome)
			} else {
				c1 = e.cloneGenome(e.pop[i1].Genome)
				c2 = e.cloneGenome(e.pop[i2].Genome)
			}
			if e.rng.Bool(e.cfg.MutationRate) {
				e.cfg.Ops.Mutate(e.rng, c1)
			}
			if e.rng.Bool(e.cfg.MutationRate) {
				e.cfg.Ops.Mutate(e.rng, c2)
			}
			children = append(children, c1, c2)
		}
		children = children[:n]
	}

	objs := e.childObjs
	if cap(objs) < len(children) {
		objs = make([]float64, len(children))
	}
	objs = objs[:len(children)]
	e.evalBatch(children, objs)
	for i := range children {
		next[nElite+i] = Individual[G]{Genome: children[i], Obj: objs[i], Fit: e.cfg.Fitness(objs[i])}
	}

	if e.cfg.Elite > 0 && !e.cfg.Immigration.Enabled {
		e.applyElitism(next)
	}
	e.children = children[:0]
	e.childObjs = objs[:0]
	e.spare = e.pop
	e.pop = next
	e.refreshBest()
	e.record()
}

// immigrationOffspring builds the next generation per Huang et al.: elites
// are copied directly with their cached Obj/Fit (no evaluation budget is
// spent on known genomes), the crossover share recombines selected parents,
// and the rest are random immigrants. Elites are written to next[:nElite];
// the genomes still needing evaluation are appended to children.
func (e *Engine[G]) immigrationOffspring(next []Individual[G], children []G) (nElite int, _ []G) {
	n := e.cfg.Pop
	nBest := int(float64(n) * e.cfg.Immigration.BestFrac)
	nRand := int(float64(n) * e.cfg.Immigration.RandomFrac)
	nCross := n - nBest - nRand
	// Elites: best nBest individuals of the current population, carried
	// over with their cached objective and fitness.
	e.ordA = bestK(e.ordA, e.pop, nBest)
	for _, i := range e.ordA {
		src := e.pop[i]
		next[nElite] = Individual[G]{Genome: e.cloneGenome(src.Genome), Obj: src.Obj, Fit: src.Fit}
		nElite++
	}
	nChildren := nBest + nCross - nElite
	for len(children) < nChildren {
		i1 := e.cfg.Ops.Select(e.rng, e.pop)
		i2 := e.cfg.Ops.Select(e.rng, e.pop)
		c1, c2 := e.cfg.Ops.Cross(e.rng, e.pop[i1].Genome, e.pop[i2].Genome)
		if e.rng.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(e.rng, c1)
		}
		if e.rng.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(e.rng, c2)
		}
		children = append(children, c1)
		if len(children) < nChildren {
			children = append(children, c2)
		}
	}
	for nElite+len(children) < n {
		children = append(children, e.prob.Random(e.rng))
	}
	return nElite, children
}

// applyElitism copies the Elite best previous individuals over the worst
// children, recycling the displaced children's genome storage. The i-th
// best meets the i-th worst, both chosen before any replacement.
func (e *Engine[G]) applyElitism(next []Individual[G]) {
	e.ordA = bestK(e.ordA, e.pop, e.cfg.Elite)
	e.ordB = worstK(e.ordB, next, len(e.ordA))
	for i, worstIdx := range e.ordB {
		eliteIdx := e.ordA[i]
		if e.pop[eliteIdx].Obj < next[worstIdx].Obj {
			if e.cloneInto != nil {
				e.free = append(e.free, next[worstIdx].Genome)
			}
			next[worstIdx] = Individual[G]{
				Genome: e.cloneGenome(e.pop[eliteIdx].Genome),
				Obj:    e.pop[eliteIdx].Obj,
				Fit:    e.pop[eliteIdx].Fit,
			}
		}
	}
}

// bestK returns the indices of the k lowest-objective individuals of pop,
// best first and lower index first among ties: exactly the first k
// entries of a stable ascending sort. worstK returns the k highest, worst
// first and higher index first among ties: the last k entries of that
// sort, reversed. Both keep a sorted selection of at most k entries, so
// they cost O(n·k) and reuse buf's capacity. Objectives must not be NaN.
func bestK[G any](buf []int, pop []Individual[G], k int) []int {
	return selectK(buf, pop, k, 1)
}

func worstK[G any](buf []int, pop []Individual[G], k int) []int {
	return selectK(buf, pop, k, -1)
}

// selectK ranks by sign·Obj ascending, scanning pop upward for sign 1 and
// downward for sign -1, so that with strict comparisons the earlier-
// scanned individual stays ahead among ties.
func selectK[G any](buf []int, pop []Individual[G], k int, sign float64) []int {
	k = max(0, min(k, len(pop)))
	sel := buf[:0]
	if cap(sel) < k {
		sel = make([]int, 0, k)
	}
	i, step := 0, 1
	if sign < 0 {
		i, step = len(pop)-1, -1
	}
	for ; i >= 0 && i < len(pop); i += step {
		v := sign * pop[i].Obj
		j := len(sel)
		if j < k {
			sel = append(sel, i)
		} else if k > 0 && v < sign*pop[sel[k-1]].Obj {
			j--
		} else {
			continue
		}
		for j > 0 && sign*pop[sel[j-1]].Obj > v {
			sel[j] = sel[j-1]
			j--
		}
		sel[j] = i
	}
	return sel
}

func (e *Engine[G]) record() {
	if e.cfg.OnGeneration == nil && !e.cfg.RecordHistory {
		return
	}
	objs := e.statBuf
	if cap(objs) < len(e.pop) {
		objs = make([]float64, len(e.pop))
	}
	objs = objs[:len(e.pop)]
	e.statBuf = objs
	bestGen := e.pop[0].Obj
	for i, ind := range e.pop {
		objs[i] = ind.Obj
		if ind.Obj < bestGen {
			bestGen = ind.Obj
		}
	}
	sum := stats.Summarize(objs)
	gs := GenStats{
		Generation:  e.gen,
		BestObj:     bestGen,
		BestSoFar:   e.best.Obj,
		MeanObj:     sum.Mean,
		StdObj:      sum.Std,
		Evaluations: e.evals,
	}
	if e.cfg.RecordHistory {
		e.history = append(e.history, gs)
	}
	if e.cfg.OnGeneration != nil {
		e.cfg.OnGeneration(gs)
	}
}

// Run executes Step until Done and returns the Result, releasing any
// sharded-pipeline workers on the way out (the engine stays usable: a
// later Step respawns them).
func (e *Engine[G]) Run() Result[G] {
	for !e.Done() {
		e.Step()
	}
	e.Close()
	return Result[G]{
		Best:        e.Best(),
		Generations: e.gen,
		Evaluations: e.evals,
		Elapsed:     time.Since(e.started),
		History:     e.history,
	}
}
