package repro

// BenchmarkHotPath tracks the zero-allocation evaluation pipeline against
// the schedule-building oracle decoders, pairing each environment's
// "schedule" path (materialise a shop.Schedule, then take its objective)
// with its "kernel" path (decode into a reusable Scratch, return the
// objective directly). The measured baseline is recorded in
// BENCH_hotpath.json; regenerate it with
//
//	go test -run='^$' -bench=BenchmarkHotPath -benchtime=1s .
//
// CI runs the suite with -benchtime=1x as a smoke test so the kernels and
// their alloc counters stay exercised on every PR.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/op"
	"repro/internal/rng"
	"repro/internal/shop"
	"repro/internal/shopga"
)

func BenchmarkHotPath(b *testing.B) {
	r := rng.New(42)

	// Batch rows (the third evaluation rung) decode one whole batchN-genome
	// batch through the lockstep kernels per benchmark op, so their ns/op is
	// per batch — divide by batchN to compare against the per-genome kernel
	// rows (BENCH_hotpath.json records the derived per-genome ratio).
	const batchN = 64

	jobShops := []*shop.Instance{
		shop.FT06(),
		shop.GenerateJobShop("hp-15x10", 15, 10, 912, 913),
	}
	for _, in := range jobShops {
		seq := decode.RandomOpSequence(in, r)
		name := fmt.Sprintf("jobshop-%s", in.Name)
		b.Run(name+"/schedule", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = decode.JobShop(in, seq).Makespan()
			}
		})
		b.Run(name+"/kernel", func(b *testing.B) {
			s := decode.NewScratch(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = decode.JobShopMakespan(in, seq, s)
			}
		})
	}

	fs := shop.GenerateFlowShop("hp-fs-20x5", 20, 5, 911)
	perm := decode.RandomPermutation(fs, r)
	b.Run("flowshop-hp-fs-20x5/schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShop(fs, perm).Makespan()
		}
	})
	b.Run("flowshop-hp-fs-20x5/kernel", func(b *testing.B) {
		s := decode.NewScratch(fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = decode.FlowShopMakespanWith(fs, perm, s)
		}
	})
	fsPerms := make([][]int, batchN)
	for i := range fsPerms {
		fsPerms[i] = decode.RandomPermutation(fs, r)
	}
	fsOut := make([]float64, batchN)
	b.Run(fmt.Sprintf("flowshop-hp-fs-20x5/batch-%d", batchN), func(b *testing.B) {
		bs := decode.NewBatchScratch(fs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bs.FlowShopMakespans(fsPerms, fsOut)
		}
	})

	for _, in := range jobShops {
		seqs := make([][]int, batchN)
		for i := range seqs {
			seqs[i] = decode.RandomOpSequence(in, r)
		}
		out := make([]float64, batchN)
		b.Run(fmt.Sprintf("jobshop-%s/batch-%d", in.Name, batchN), func(b *testing.B) {
			bs := decode.NewBatchScratch(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.JobShopMakespans(seqs, out)
			}
		})
	}

	gt := shop.FT06()
	pri := make([]float64, gt.TotalOps())
	for i := range pri {
		pri[i] = r.Float64()
	}
	b.Run("gt-ft06/schedule", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = decode.GifflerThompson(gt, pri).Makespan()
		}
	})
	b.Run("gt-ft06/kernel", func(b *testing.B) {
		s := decode.NewScratch(gt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = decode.GifflerThompsonMakespan(gt, pri, s)
		}
	})

	// Variation operators: one recycling crossover call (two children) per
	// op, on the genomes the engine rows recombine; ns/child is the figure
	// the ledger records.
	uniA, uniB := make([]int, 150), make([]int, 150)
	for i := range uniA {
		uniA[i], uniB[i] = r.Intn(15), r.Intn(15)
	}
	opRows := []struct {
		name  string
		cross core.CrossoverInto[[]int]
		a, b  []int
	}{
		{"op/jox-into-15x10", op.JOXInto(15)(), decode.RandomOpSequence(jobShops[1], r), decode.RandomOpSequence(jobShops[1], r)},
		{"op/ox-into-20", op.OXInto()(), decode.RandomPermutation(fs, r), decode.RandomPermutation(fs, r)},
		{"op/uniform-int-into-150", op.UniformIntInto()(), uniA, uniB},
	}
	for _, row := range opRows {
		b.Run(row.name, func(b *testing.B) {
			cr := rng.New(11)
			d1, d2 := row.cross(cr, row.a, row.b, nil, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d1, d2 = row.cross(cr, row.a, row.b, d1, d2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/child")
		})
	}

	// End to end: one engine generation on the 15x10 job shop. 'serial'
	// is Workers 0, every shard inline on the calling goroutine; shard-N
	// runs the same pipeline with N executors (N-1 persistent goroutines).
	// All three compute the same trajectory. shard-1 vs shard-4 is the
	// parallel-step speedup the CI gate ratchets (TestShardedStepSpeedup).
	js := jobShops[1]
	prob := shopga.JobShopProblem(js, shop.Makespan)
	b.Run("engine-step-15x10/serial", func(b *testing.B) {
		eng := core.New(prob, rng.New(7), core.Config[[]int]{
			Pop: 64, Ops: shopga.SeqOps(js),
			Term: core.Termination{MaxGenerations: 1 << 30},
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("engine-step-15x10/shard-%d", workers), func(b *testing.B) {
			eng := core.New(prob, rng.New(7), core.Config[[]int]{
				Pop: 64, Ops: shopga.SeqOps(js), Workers: workers,
				Term: core.Termination{MaxGenerations: 1 << 30},
			})
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
	}
}

// TestShardedStepSpeedup gates the sharded pipeline's parallel-step scaling
// on the 15x10 engine-step workload: 4 workers must be >= 1.8x faster than
// 1 worker (the BENCH_hotpath.json acceptance row targets 2x; the gate
// leaves headroom for shared runners). Wall-clock parallel speedup needs
// real cores, so the guard skips below 4 CPUs — single-core containers
// (where 4 workers necessarily run at 1-worker speed) and -race/-short
// builds record the measurement as informational only.
func TestShardedStepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts parallel timing")
	}
	js := shop.GenerateJobShop("sp-shard-15x10", 15, 10, 912, 913)
	prob := shopga.JobShopProblem(js, shop.Makespan)
	stepNs := func(workers int) int64 {
		eng := core.New(prob, rng.New(7), core.Config[[]int]{
			Pop: 64, Ops: shopga.SeqOps(js), Workers: workers,
			Term: core.Termination{MaxGenerations: 1 << 30},
		})
		defer eng.Close()
		for i := 0; i < 30; i++ { // warm free lists, spawn workers
			eng.Step()
		}
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.Step()
			}
		})
		return res.NsPerOp()
	}
	// Best of three attempts: a transiently loaded host (other test
	// binaries of `go test ./...` sharing the cores) must not flake the
	// gate; a genuinely broken pipeline fails all three.
	var one, four int64
	ratio := 0.0
	for attempt := 0; attempt < 3 && ratio < 1.8; attempt++ {
		one = stepNs(1)
		four = stepNs(4)
		if r := float64(one) / float64(four); r > ratio {
			ratio = r
		}
	}
	t.Logf("engine-step-15x10: shard-1 %d ns/op, shard-4 %d ns/op (best %.2fx, %d CPUs)",
		one, four, ratio, runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		t.Skipf("only %d CPUs: parallel wall-clock speedup is not measurable here", runtime.NumCPU())
	}
	if ratio < 1.8 {
		t.Errorf("shard-4 only %.2fx faster than shard-1 over 3 attempts, want >= 1.8x", ratio)
	}
}

// pairedRatios times a and b back to back reps times, alternating which
// of the two runs first, and returns the reps per-pair ratios a/b sorted
// ascending. Both sides of a pair see the same host state, so frequency
// drift and load from neighbouring processes cancel out of each ratio
// instead of biasing one side; a pair hit by a preemption is one outlier,
// which the median ignores.
func pairedRatios(reps int, a, b func()) []float64 {
	time1 := func(f func()) float64 {
		s := time.Now()
		f()
		return float64(time.Since(s).Nanoseconds())
	}
	ratios := make([]float64, reps)
	for i := range ratios {
		var ta, tb float64
		if i%2 == 0 {
			ta = time1(a)
			tb = time1(b)
		} else {
			tb = time1(b)
			ta = time1(a)
		}
		ratios[i] = ta / tb
	}
	sort.Float64s(ratios)
	return ratios
}

// medianBounds returns the median of the sorted sample xs and a
// distribution-free two-sided confidence interval for the population
// median at level 1-2·alpha: the order statistics x(l) and x(n+1-l), with
// l the largest rank such that P(Binomial(n, 1/2) < l) <= alpha (the
// sign-test interval; it assumes only that the pairs are independent).
func medianBounds(xs []float64, alpha float64) (median, lower, upper float64) {
	n := len(xs)
	median = xs[n/2]
	if n%2 == 0 {
		median = (xs[n/2-1] + xs[n/2]) / 2
	}
	lgn, _ := math.Lgamma(float64(n + 1))
	pmf := func(k int) float64 {
		a, _ := math.Lgamma(float64(k + 1))
		b, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(lgn - a - b - float64(n)*math.Ln2)
	}
	l, cdf := 0, 0.0 // cdf = P(Binomial(n, 1/2) < l)
	for l < n/2 && cdf+pmf(l) <= alpha {
		cdf += pmf(l)
		l++
	}
	if l == 0 {
		return median, math.Inf(-1), math.Inf(1)
	}
	return median, xs[l-1], xs[n-l]
}

// TestBatchKernelSpeedup ratchets the batch rung against the scalar kernels
// on the BENCH_hotpath workloads: the 4-wide lockstep sweeps must hold
// >= 1.2x on both the flow shop row and the 15x10 job shop row. Each
// attempt takes the median of 301 paired kernel/batch ratios (see
// pairedRatios) and its one-sided 99.9% sign-test lower bound; the row
// passes only when that lower bound clears the threshold, so a median
// near 1.2x with an interval straddling it fails. As before, a row gets
// three attempts: on a shared 2-vCPU host the flow-shop median moved
// between 1.15x and 1.54x from one attempt to the next (load on the
// sibling hyperthread shrinks the lockstep advantage for seconds at a
// time) while each attempt's interval stayed a few hundredths wide. A
// real batch regression reads ~1.0x on every attempt.
func TestBatchKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation distorts the kernel-vs-batch ratio")
	}
	r := rng.New(4243)
	fs := shop.GenerateFlowShop("sp-fs-20x5", 20, 5, 911)
	js := shop.GenerateJobShop("sp-js-15x10", 15, 10, 912, 913)
	const batchN = 64
	const iters = 4096 // scalar decodes per timing sample (batch does iters/batchN batches)
	const pairs = 301
	perms := make([][]int, batchN)
	seqs := make([][]int, batchN)
	for i := range perms {
		perms[i] = decode.RandomPermutation(fs, r)
		seqs[i] = decode.RandomOpSequence(js, r)
	}
	out := make([]float64, batchN)
	bf, bj := decode.NewBatchScratch(fs), decode.NewBatchScratch(js)
	sf, sj := decode.NewScratch(fs), decode.NewScratch(js)
	sink := 0
	cases := []struct {
		name      string
		threshold float64
		kernel    func()
		batch     func()
	}{
		{"flowshop-20x5", 1.2,
			func() {
				for i := 0; i < iters; i++ {
					sink += decode.FlowShopMakespanWith(fs, perms[i%batchN], sf)
				}
			},
			func() {
				for i := 0; i < iters/batchN; i++ {
					bf.FlowShopMakespans(perms, out)
				}
			}},
		{"jobshop-15x10", 1.2,
			func() {
				for i := 0; i < iters; i++ {
					sink += decode.JobShopMakespan(js, seqs[i%batchN], sj)
				}
			},
			func() {
				for i := 0; i < iters/batchN; i++ {
					bj.JobShopMakespans(seqs, out)
				}
			}},
	}
	for _, c := range cases {
		for i := 0; i < 10; i++ { // warm caches and the branch predictors
			c.kernel()
			c.batch()
		}
		var median, lower, upper float64
		for attempt := 1; attempt <= 3; attempt++ {
			median, lower, upper = medianBounds(pairedRatios(pairs, c.kernel, c.batch), 0.001)
			t.Logf("%s attempt %d: batch %.2fx vs scalar kernel, median of %d pairs, 99.8%% interval %.2f-%.2fx (want lower bound >= %.1fx)",
				c.name, attempt, median, pairs, lower, upper, c.threshold)
			if lower >= c.threshold {
				break
			}
		}
		if lower < c.threshold {
			t.Errorf("%s: batch speedup lower bound %.2fx (median %.2fx over %d paired samples) on each of 3 attempts, want >= %.1fx",
				c.name, lower, median, pairs, c.threshold)
		}
	}
	_ = sink
}

// TestHotPathKernelSpeedup is a coarse ratchet for the acceptance criterion
// that the kernels beat the schedule-building path by >= 2x on the job shop
// instances (measured margin is ~4-5x). Wall-clock measurement is noisy on
// shared or race-instrumented hosts, so the guard skips under -short and
// -race; CI runs it as a non-blocking informational step, and the full
// local gate (go test ./...) enforces it.
func TestHotPathKernelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation compresses the kernel-vs-schedule ratio")
	}
	r := rng.New(4242)
	for _, in := range []*shop.Instance{shop.FT06(), shop.GenerateJobShop("sp-15x10", 15, 10, 912, 913)} {
		seq := decode.RandomOpSequence(in, r)
		s := decode.NewScratch(in)
		schedule := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = decode.JobShop(in, seq).Makespan()
			}
		})
		kernel := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = decode.JobShopMakespan(in, seq, s)
			}
		})
		ratio := float64(schedule.NsPerOp()) / float64(kernel.NsPerOp())
		t.Logf("%s: schedule %d ns/op, kernel %d ns/op (%.1fx)",
			in.Name, schedule.NsPerOp(), kernel.NsPerOp(), ratio)
		if ratio < 2 {
			t.Errorf("%s: kernel only %.2fx faster than schedule path, want >= 2x", in.Name, ratio)
		}
	}
}
