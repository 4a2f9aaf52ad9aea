// Package qga implements the parallel quantum genetic algorithm of Gu, Gu
// & Gu [28] for the stochastic job shop scheduling problem:
//
//   - the stochastic JSSP is modelled by the expected value of the makespan
//     over a fixed set of sampled scenarios (common random numbers), which
//     makes every fitness evaluation deliberately expensive — exactly the
//     workload the survey recommends master-slave parallelism for;
//   - individuals are Q-bit strings (rotation angles); observation collapses
//     them to binary strings that decode to operation priorities;
//   - the rotation gate drags the population toward the best observed
//     solution, the Not-gate mutation flips angles, and the quantum
//     crossover exchanges angle segments (the lower-level communication);
//   - StarPQGA runs islands of QGAs on a star topology with penetration
//     migration at the upper level: leaves send their best solutions to the
//     hub and the hub's global best penetrates back into every leaf.
package qga

import (
	"math"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/rng"
	"repro/internal/shop"
)

// StochasticJSSP is a job shop whose processing times are random; the
// objective of a sequence is its expected makespan over fixed sampled
// scenarios (a stochastic expected value model with common random numbers).
type StochasticJSSP struct {
	Base      *shop.Instance
	Scenarios []*shop.Instance
}

// NewStochastic samples `scenarios` instances whose processing times are
// normally distributed around the base times with relative deviation sigma
// (truncated at 1).
func NewStochastic(base *shop.Instance, scenarios int, sigma float64, seed uint64) *StochasticJSSP {
	if scenarios <= 0 {
		panic("qga: need at least one scenario")
	}
	r := rng.New(seed)
	s := &StochasticJSSP{Base: base}
	for k := 0; k < scenarios; k++ {
		inst := &shop.Instance{
			Name: base.Name, Kind: base.Kind, NumMachines: base.NumMachines,
			Jobs: make([]shop.Job, len(base.Jobs)),
		}
		for j, job := range base.Jobs {
			ops := make([]shop.Operation, len(job.Ops))
			for o, opn := range job.Ops {
				times := make([]int, len(opn.Times))
				for i, p := range opn.Times {
					draw := float64(p) * (1 + sigma*r.NormFloat64())
					t := int(draw + 0.5)
					if t < 1 {
						t = 1
					}
					times[i] = t
				}
				ops[o] = shop.Operation{Machines: append([]int(nil), opn.Machines...), Times: times}
			}
			inst.Jobs[j] = shop.Job{Ops: ops, Release: job.Release, Due: job.Due, Weight: job.Weight}
		}
		s.Scenarios = append(s.Scenarios, inst)
	}
	return s
}

// ExpectedMakespan decodes the operation sequence on every scenario and
// returns the mean makespan. The scenarios share the base instance's shape,
// so one Scratch serves them all; it is per call, keeping ExpectedMakespan
// safe for concurrent evaluators.
func (s *StochasticJSSP) ExpectedMakespan(seq []int) float64 {
	sc := decode.NewScratch(s.Base)
	var sum float64
	for _, inst := range s.Scenarios {
		sum += float64(decode.JobShopMakespan(inst, seq, sc))
	}
	return sum / float64(len(s.Scenarios))
}

// Problem exposes the stochastic JSSP as an operation-sequence core.Problem
// (usable with any parallel model; its evaluation cost is scenarios x decode).
func (s *StochasticJSSP) Problem() core.Problem[[]int] {
	return core.FuncProblem[[]int]{
		RandomFn:   func(r *rng.RNG) []int { return decode.RandomOpSequence(s.Base, r) },
		EvaluateFn: s.ExpectedMakespan,
		CloneFn:    func(g []int) []int { return append([]int(nil), g...) },
	}
}

// Config parameterises one QGA island.
type Config struct {
	Pop         int     // Q-individuals (default 20)
	Bits        int     // bits per operation priority (default 4)
	Delta       float64 // rotation step in radians (default 0.05*pi)
	NotGateRate float64 // per-individual Not-gate mutation probability (default 0.05)
	CrossRate   float64 // per-individual quantum crossover probability (default 0.2)
	Generations int     // default 100

	// Target, when TargetSet, stops a run once the best expected makespan
	// reaches it (checked between generations / at star epoch barriers).
	Target    float64
	TargetSet bool

	// Stop, when set, is polled between generations; returning true ends
	// the run with the best found so far (external cancellation seam).
	Stop func() bool

	// OnEpoch, when set, is called by StarPQGA after every migration epoch
	// (penetration + broadcast) with the completed epoch index and the
	// global best expected makespan — the model's streaming-progress seam.
	// It runs on the star loop's goroutine, between epochs.
	OnEpoch func(epoch int, best float64)
}

func (c *Config) defaults() {
	if c.Pop <= 0 {
		c.Pop = 20
	}
	if c.Bits <= 0 {
		c.Bits = 4
	}
	if c.Delta == 0 {
		c.Delta = 0.05 * math.Pi
	}
	if c.NotGateRate == 0 {
		c.NotGateRate = 0.05
	}
	if c.CrossRate == 0 {
		c.CrossRate = 0.2
	}
	if c.Generations <= 0 {
		c.Generations = 100
	}
}

// QGA is a single quantum GA island on a stochastic JSSP.
type QGA struct {
	prob *StochasticJSSP
	cfg  Config
	r    *rng.RNG

	thetas   [][]float64 // Q-bit angles per individual
	bestBits []bool      // best observed binary string
	bestSeq  []int
	bestObj  float64
	evals    int64
	gen      int
}

// NewQGA initialises all angles at pi/4 (equal superposition).
func NewQGA(prob *StochasticJSSP, r *rng.RNG, cfg Config) *QGA {
	cfg.defaults()
	q := &QGA{prob: prob, cfg: cfg, r: r, bestObj: math.Inf(1)}
	l := q.chromosomeLen()
	for i := 0; i < cfg.Pop; i++ {
		t := make([]float64, l)
		for k := range t {
			t[k] = math.Pi / 4
		}
		q.thetas = append(q.thetas, t)
	}
	return q
}

func (q *QGA) chromosomeLen() int { return q.prob.Base.TotalOps() * q.cfg.Bits }

// observe collapses one Q-individual to a binary string.
func (q *QGA) observe(theta []float64) []bool {
	bits := make([]bool, len(theta))
	for i, t := range theta {
		s := math.Sin(t)
		if q.r.Float64() < s*s {
			bits[i] = true
		}
	}
	return bits
}

// decodeBits converts a binary string to an operation sequence: each
// operation's Bits form an integer priority; flattened operations sorted by
// (priority, id) give a job-token order which is repaired into a valid
// permutation with repetition.
func (q *QGA) decodeBits(bits []bool) []int {
	in := q.prob.Base
	total := in.TotalOps()
	pri := make([]int, total)
	for opID := 0; opID < total; opID++ {
		v := 0
		for b := 0; b < q.cfg.Bits; b++ {
			v <<= 1
			if bits[opID*q.cfg.Bits+b] {
				v |= 1
			}
		}
		pri[opID] = v
	}
	ids := make([]int, total)
	for i := range ids {
		ids[i] = i
	}
	// Insertion sort by (priority desc, id asc): highest priority first.
	for i := 1; i < len(ids); i++ {
		j := i
		for j > 0 && pri[ids[j-1]] < pri[ids[j]] {
			ids[j-1], ids[j] = ids[j], ids[j-1]
			j--
		}
	}
	off := decode.OpOffsets(in)
	jobOf := make([]int, total)
	for j := range in.Jobs {
		for k := 0; k < len(in.Jobs[j].Ops); k++ {
			jobOf[off[j]+k] = j
		}
	}
	seq := make([]int, total)
	for i, id := range ids {
		seq[i] = jobOf[id]
	}
	return decode.RepairOpSequence(in, seq)
}

// Step runs one QGA generation: observe, evaluate, update best, rotate
// toward best, Not-gate mutate, quantum crossover.
func (q *QGA) Step() {
	q.gen++
	type obs struct {
		bits []bool
		obj  float64
	}
	observed := make([]obs, len(q.thetas))
	for i, theta := range q.thetas {
		bits := q.observe(theta)
		seq := q.decodeBits(bits)
		objv := q.prob.ExpectedMakespan(seq)
		q.evals++
		observed[i] = obs{bits: bits, obj: objv}
		if objv < q.bestObj {
			q.bestObj = objv
			q.bestBits = append([]bool(nil), bits...)
			q.bestSeq = seq
		}
	}
	// Rotation gate: drag each individual's angles toward the best bits.
	for i, theta := range q.thetas {
		if q.bestBits == nil || observed[i].obj == q.bestObj {
			continue
		}
		for k := range theta {
			target := q.bestBits[k]
			current := observed[i].bits[k]
			if target == current {
				continue
			}
			if target {
				theta[k] += q.cfg.Delta // raise P(1) = sin^2
			} else {
				theta[k] -= q.cfg.Delta
			}
			if theta[k] < 0.01 {
				theta[k] = 0.01
			}
			if theta[k] > math.Pi/2-0.01 {
				theta[k] = math.Pi/2 - 0.01
			}
		}
	}
	// Not-gate mutation: theta -> pi/2 - theta (swaps amplitudes).
	for _, theta := range q.thetas {
		if q.r.Bool(q.cfg.NotGateRate) {
			k := q.r.Intn(len(theta))
			theta[k] = math.Pi/2 - theta[k]
		}
	}
	// Quantum crossover: exchange an angle segment between two individuals.
	for i := range q.thetas {
		if !q.r.Bool(q.cfg.CrossRate) {
			continue
		}
		j := q.r.Intn(len(q.thetas))
		if i == j {
			continue
		}
		l := len(q.thetas[i])
		c1 := q.r.Intn(l)
		c2 := q.r.Intn(l)
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		for k := c1; k <= c2; k++ {
			q.thetas[i][k], q.thetas[j][k] = q.thetas[j][k], q.thetas[i][k]
		}
	}
}

// InjectBest overwrites the island's best with a foreign solution if it is
// better and rotates the population toward it (penetration migration).
func (q *QGA) InjectBest(bits []bool, obj float64) {
	if obj < q.bestObj {
		q.bestObj = obj
		q.bestBits = append([]bool(nil), bits...)
		q.bestSeq = q.decodeBits(q.bestBits)
	}
}

// Best returns the best expected makespan and its sequence so far.
func (q *QGA) Best() (float64, []int) { return q.bestObj, q.bestSeq }

// BestBits returns the best observed binary string (nil before any step).
func (q *QGA) BestBits() []bool { return q.bestBits }

// Evaluations returns the expected-makespan evaluations spent (each costs
// len(Scenarios) schedule decodings).
func (q *QGA) Evaluations() int64 { return q.evals }

// Run executes the configured generations.
func (q *QGA) Run() (float64, []int) {
	for q.gen < q.cfg.Generations {
		if q.cfg.Stop != nil && q.cfg.Stop() {
			break
		}
		if q.cfg.TargetSet && q.bestObj <= q.cfg.Target {
			break
		}
		q.Step()
	}
	return q.bestObj, q.bestSeq
}

// StarResult reports a StarPQGA run.
type StarResult struct {
	BestObj     float64
	BestSeq     []int
	PerIsland   []float64
	Evaluations int64
	Epochs      int // migration epochs actually executed
}

// StarPQGA runs `islands` QGAs on a star topology: every interval
// generations the leaves' bests penetrate to the hub (island 0) and the
// global best is broadcast back to all leaves.
func StarPQGA(prob *StochasticJSSP, r *rng.RNG, islands, interval, epochs int, cfg Config) StarResult {
	if islands < 1 {
		panic("qga: need at least one island")
	}
	cfg.defaults()
	cfg.Generations = 1 << 30 // driven by epochs below
	qs := make([]*QGA, islands)
	for i := range qs {
		qs[i] = NewQGA(prob, r.Split(), cfg)
	}
	atTarget := func() bool {
		if !cfg.TargetSet {
			return false
		}
		for _, q := range qs {
			if q.bestObj <= cfg.Target {
				return true
			}
		}
		return false
	}
	completed := 0
	for e := 0; e < epochs; e++ {
		if cfg.Stop != nil && cfg.Stop() {
			break
		}
		if atTarget() {
			break
		}
		completed = e + 1
		for _, q := range qs {
			for s := 0; s < interval; s++ {
				if cfg.Stop != nil && cfg.Stop() {
					break
				}
				q.Step()
			}
		}
		// Penetration: leaves -> hub.
		hub := qs[0]
		for _, leaf := range qs[1:] {
			if bits := leaf.BestBits(); bits != nil {
				obj, _ := leaf.Best()
				hub.InjectBest(bits, obj)
			}
		}
		// Broadcast: hub's global best -> leaves.
		if bits := hub.BestBits(); bits != nil {
			obj, _ := hub.Best()
			for _, leaf := range qs[1:] {
				leaf.InjectBest(bits, obj)
			}
		}
		if cfg.OnEpoch != nil {
			// After penetration the hub holds the global best.
			obj, _ := hub.Best()
			cfg.OnEpoch(e, obj)
		}
	}
	res := StarResult{BestObj: math.Inf(1), Epochs: completed}
	for _, q := range qs {
		obj, seq := q.Best()
		res.PerIsland = append(res.PerIsland, obj)
		res.Evaluations += q.Evaluations()
		if obj < res.BestObj {
			res.BestObj, res.BestSeq = obj, seq
		}
	}
	return res
}
