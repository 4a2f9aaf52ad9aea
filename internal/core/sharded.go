package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// The generation pipeline: every Step of every engine runs here.
//
// A master-slave GA that serialises the variation phase on one goroutine
// and fans out only the fitness evaluation hits the bottleneck the
// parallel-GA literature works around by batching whole sub-populations
// per device (Luo & El Baz's dual heterogeneous island GA,
// arXiv:1903.10722) and by chunked rather than per-task dispatch (Sun et
// al., arXiv:0809.3285). So the next generation is partitioned into
// fixed-size shards of shardSize children, and executors claim whole
// shards from an atomic cursor and run selection -> crossover -> mutation
// -> evaluation for their shard end-to-end:
//
//   - Randomness: shard s draws only from its own substream, derived once
//     at New via rng.SplitN(shards). The decomposition and the substreams
//     depend only on Pop, so results are bit-identical for ANY worker
//     count — the property TestShardedWorkerInvariance pins.
//   - Executors: executor 0 is the calling goroutine; Workers > 1 adds
//     Workers-1 persistent goroutines, Workers <= 1 spawns none and runs
//     every shard inline.
//   - Evaluation: each executor owns exactly one batch closure — the
//     problem's BatchEvalProblem closure (private decode scratch), or a
//     loop over Problem.Evaluate — and evaluates a whole shard per call
//     (shardSize is the batch kernels' interleave width, so a full shard
//     is exactly one lockstep tile). Evaluation draws no randomness, so
//     the trajectory does not depend on which closure runs.
//   - Memory: each shard owns the free list of retired genomes from its own
//     slot range and each executor owns its recycling crossover instance
//     (Operators.CrossInto), so the steady-state step performs no
//     allocation and no sync.Pool round-trips, and every executor writes a
//     contiguous span of the next generation (no false sharing).
//   - Dispatch: shardSize is a small constant, so a 64-individual
//     population yields 16 shards — ~4 claims per worker at Workers=4 —
//     which keeps the tail balanced when evaluation costs are skewed
//     without per-genome cursor traffic.
//
// The previous population is read-only during a step (selection reads it
// from every executor); immigration elites, elitism and best-tracking run
// on the calling goroutine around the shards.

// shardSize is the number of children per shard (two selection/crossover
// pairs). It is a fixed constant — NOT derived from Workers — because the
// shard count decides how the RNG substreams are laid out; tying it to the
// worker count would break cross-worker-count determinism.
const shardSize = 4

// ShardStreams returns the number of shard substreams an engine of
// population pop carries: the length of Snapshot.Shards. Checkpoint
// decoders use it to refuse a snapshot whose stream layout cannot resume.
func ShardStreams(pop int) int { return (pop + shardSize - 1) / shardSize }

// shardRange is one shard's half-open slot range in the next generation.
type shardRange struct{ lo, hi int }

// shardedState is the engine's pipeline state.
type shardedState[G any] struct {
	workers int
	shards  []shardRange
	rngs    []*rng.RNG // per-shard substream, advanced only by its shard
	free    [][]G      // per-shard free list of retired genomes

	// next is the generation buffer being filled, published to workers
	// before they are woken each step. Slots below nBest hold immigration
	// elites and are left alone; slots in [nBest, crossEnd) are crossover
	// offspring and slots from crossEnd on are random immigrants.
	next            []Individual[G]
	nBest, crossEnd int

	cursor  atomic.Int64 // shard claim cursor, reset each step
	wg      sync.WaitGroup
	wake    []chan struct{} // one buffered wake channel per spawned worker
	started bool

	// Per-executor batch-evaluation closures, recycling crossover
	// instances and gather/result buffers (capacity shardSize); closures
	// may hold private scratch and are created once, at New.
	evals []func(genomes []G, out []float64)
	cross []CrossoverInto[G]
	gbuf  [][]G
	obuf  [][]float64
}

// newShardedState builds the shard decomposition and the per-executor
// closures. The substreams (rngs) are split off by New after the initial
// population is evaluated through executor 0's closure.
func newShardedState[G any](e *Engine[G], workers int) *shardedState[G] {
	n := e.cfg.Pop
	nShards := ShardStreams(n)
	workers = max(1, min(workers, nShards))
	sh := &shardedState[G]{workers: workers}
	sh.shards = make([]shardRange, nShards)
	for s := range sh.shards {
		lo := s * shardSize
		sh.shards[s] = shardRange{lo, min(lo+shardSize, n)}
	}
	sh.free = make([][]G, nShards)
	sh.evals = make([]func([]G, []float64), workers)
	sh.cross = make([]CrossoverInto[G], workers)
	sh.gbuf = make([][]G, workers)
	sh.obuf = make([][]float64, workers)
	bep, batched := e.prob.(BatchEvalProblem[G])
	for k := range sh.evals {
		if batched {
			sh.evals[k] = bep.BatchEvaluator()
		} else {
			sh.evals[k] = func(genomes []G, out []float64) {
				for i, g := range genomes {
					out[i] = e.prob.Evaluate(g)
				}
			}
		}
		sh.cross[k] = e.cfg.Ops.CrossInto()
		sh.gbuf[k] = make([]G, 0, shardSize)
		sh.obuf[k] = make([]float64, shardSize)
	}
	return sh
}

// take2 pops up to two retired genomes off a shard's free list, returning
// zero values when it runs dry (the recycling consumer then allocates).
func take2[G any](free []G) (d1, d2 G, rest []G) {
	if k := len(free); k > 0 {
		d1 = free[k-1]
		free = free[:k-1]
	}
	if k := len(free); k > 0 {
		d2 = free[k-1]
		free = free[:k-1]
	}
	return d1, d2, free
}

// startWorkers lazily spawns the persistent worker goroutines (the caller
// participates as executor 0, so Workers-1 goroutines are spawned). They
// park on their wake channels between steps; Close releases them.
func (e *Engine[G]) startWorkers() {
	sh := e.sharded
	if sh.started {
		return
	}
	sh.wake = make([]chan struct{}, sh.workers-1)
	for k := range sh.wake {
		ch := make(chan struct{}, 1)
		sh.wake[k] = ch
		exec := k + 1
		go func() {
			for range ch {
				e.runShards(exec)
				sh.wg.Done()
			}
		}()
	}
	sh.started = true
}

// Close releases the pipeline's persistent worker goroutines. The engine
// stays usable: the next Step respawns them. Close is a no-op on engines
// with Workers <= 1 (they spawn none), is idempotent, and must not be
// called concurrently with Step. Callers that abandon a multi-worker
// engine before Run returns should Close it; the solver's model adapters
// do.
func (e *Engine[G]) Close() {
	sh := e.sharded
	if !sh.started {
		return
	}
	for _, ch := range sh.wake {
		close(ch)
	}
	sh.wake = nil
	sh.started = false
}

// runPipeline fills and evaluates next[nBest:]: harvest retired genome
// storage into per-shard free lists, then let the executors drain the
// shard queue.
func (e *Engine[G]) runPipeline(next []Individual[G]) {
	sh := e.sharded
	// Harvest the retired generation shard by shard: shard s recycles the
	// genomes that previously lived in its own slot range (immigration
	// elites already reused theirs), so the free lists need no
	// cross-worker synchronisation.
	for s, rg := range sh.shards {
		f := sh.free[s][:0]
		for i := max(rg.lo, sh.nBest); i < min(rg.hi, len(e.spare)); i++ {
			f = append(f, e.spare[i].Genome)
		}
		sh.free[s] = f
	}
	sh.next = next
	sh.cursor.Store(0)
	if sh.workers > 1 {
		e.startWorkers()
		sh.wg.Add(sh.workers - 1)
		for _, ch := range sh.wake {
			ch <- struct{}{}
		}
	}
	e.runShards(0)
	if sh.workers > 1 {
		sh.wg.Wait()
	}
}

// runShards is one executor's claim loop: grab the next unclaimed shard
// and run it until the queue is drained. Claiming whole shards (not
// genomes) from the cursor is the work-stealing that re-balances skewed
// evaluation costs across workers.
func (e *Engine[G]) runShards(exec int) {
	sh := e.sharded
	nShards := int64(len(sh.shards))
	for {
		s := sh.cursor.Add(1) - 1
		if s >= nShards {
			return
		}
		e.runShard(int(s), exec)
	}
}

// runShard produces the children of shard s in its slot range of the next
// generation, then evaluates them with one call of the executor's batch
// closure. Crossover slots take pairs; a pair straddling the end of the
// crossover share keeps only its first child.
func (e *Engine[G]) runShard(s, exec int) {
	sh := e.sharded
	rg := sh.shards[s]
	r := sh.rngs[s]
	free := sh.free[s]
	cross := sh.cross[exec]
	always := e.cfg.Immigration.Enabled
	lo := max(rg.lo, sh.nBest)
	crossHi := min(rg.hi, sh.crossEnd)
	for i := lo; i < crossHi; i += 2 {
		i1 := e.cfg.Ops.Select(r, e.pop)
		i2 := e.cfg.Ops.Select(r, e.pop)
		p1, p2 := e.pop[i1].Genome, e.pop[i2].Genome
		var d1, d2, c1, c2 G
		d1, d2, free = take2(free)
		if always || r.Bool(e.cfg.CrossoverRate) {
			c1, c2 = cross(r, p1, p2, d1, d2)
		} else {
			c1 = e.cloneInto(d1, p1)
			c2 = e.cloneInto(d2, p2)
		}
		if r.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(r, c1)
		}
		if r.Bool(e.cfg.MutationRate) {
			e.cfg.Ops.Mutate(r, c2)
		}
		sh.next[i].Genome = c1
		if i+1 < crossHi {
			sh.next[i+1].Genome = c2
		}
	}
	for i := max(lo, crossHi); i < rg.hi; i++ {
		sh.next[i].Genome = e.prob.Random(r)
	}
	sh.free[s] = free
	if lo >= rg.hi {
		return
	}
	g := sh.gbuf[exec][:0]
	for i := lo; i < rg.hi; i++ {
		g = append(g, sh.next[i].Genome)
	}
	o := sh.obuf[exec][:rg.hi-lo]
	sh.evals[exec](g, o)
	for k, i := 0, lo; i < rg.hi; i, k = i+1, k+1 {
		sh.next[i].Obj = o[k]
		sh.next[i].Fit = e.cfg.Fitness(o[k])
	}
	sh.gbuf[exec] = g
}
