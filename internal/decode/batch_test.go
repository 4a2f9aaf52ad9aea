package decode

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shop"
)

// The batch layer must be bit-identical to the scalar kernels (which are
// themselves pinned to the reference decoders of oracle_test.go) for
// every genome, every shop kind, and every batch size — including ragged
// final tiles. Each property test reuses one BatchScratch across all batch
// sizes and trials so stale-state bugs (a slot's rows not reset between
// sweeps) surface.

// batchSizes spans 1..257: both tile boundaries (63/64/65, 128) and ragged
// final tiles (100, 257 = 4*64+1).
var batchSizes = []int{1, 2, 3, 7, 63, 64, 65, 100, 128, 257}

func maxBatchSize() int {
	max := 0
	for _, n := range batchSizes {
		if n > max {
			max = n
		}
	}
	return max
}

func TestBatchJobShopMatchesKernel(t *testing.T) {
	r := rng.New(21)
	s := NewScratch(shop.FT06())
	for name, in := range jobShopInstances() {
		b := NewBatchScratch(in)
		seqs := make([][]int, maxBatchSize())
		for i := range seqs {
			seqs[i] = RandomOpSequence(in, r)
		}
		out := make([]float64, len(seqs))
		for _, size := range batchSizes {
			for i := range out {
				out[i] = -1
			}
			b.JobShopMakespans(seqs[:size], out[:size])
			for i := 0; i < size; i++ {
				if want := float64(JobShopMakespan(in, seqs[i], s)); out[i] != want {
					t.Fatalf("%s size %d genome %d: batch %v, kernel %v", name, size, i, out[i], want)
				}
			}
		}
	}
}

func TestBatchFlowShopMatchesKernel(t *testing.T) {
	r := rng.New(22)
	instances := map[string]*shop.Instance{
		"12x5":  shop.GenerateFlowShop("b-fs", 12, 5, 81),
		"20x10": shop.GenerateFlowShop("b-fs2", 20, 10, 82),
		"1x1":   {Kind: shop.FlowShop, NumMachines: 1, Jobs: []shop.Job{{Ops: []shop.Operation{{Machines: []int{0}, Times: []int{4}}}, Release: 2}}},
	}
	for name, in := range instances {
		b := NewBatchScratch(in)
		s := NewScratch(in)
		perms := make([][]int, maxBatchSize())
		for i := range perms {
			perms[i] = RandomPermutation(in, r)
		}
		out := make([]float64, len(perms))
		for _, size := range batchSizes {
			b.FlowShopMakespans(perms[:size], out[:size])
			for i := 0; i < size; i++ {
				if want := float64(FlowShopMakespan(in, perms[i], s)); out[i] != want {
					t.Fatalf("%s size %d genome %d: batch %v, kernel %v", name, size, i, out[i], want)
				}
			}
		}
	}
}

func TestBatchFallbackKindsMatchKernels(t *testing.T) {
	r := rng.New(23)

	js := shop.GenerateJobShop("b-gt", 8, 6, 51, 52)
	bj := NewBatchScratch(js)
	s := NewScratch(js)
	pris := make([][]float64, 65)
	for i := range pris {
		pri := make([]float64, js.TotalOps())
		for k := range pri {
			pri[k] = r.Float64()
		}
		pris[i] = pri
	}
	out := make([]float64, len(pris))
	for _, size := range []int{1, 64, 65} {
		bj.GifflerThompsonMakespans(pris[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(GifflerThompsonMakespan(js, pris[i], s)); out[i] != want {
				t.Fatalf("GT size %d genome %d: batch %v, kernel %v", size, i, out[i], want)
			}
		}
	}

	os := shop.GenerateOpenShop("b-os", 6, 5, 61)
	bo := NewBatchScratch(os)
	so := NewScratch(os)
	seqs := make([][]int, 65)
	for i := range seqs {
		seqs[i] = RandomOpSequence(os, r)
	}
	for _, rule := range []OpenRule{EarliestStart, LPTTask, LPTMachine} {
		bo.OpenShopMakespans(seqs, rule, out[:len(seqs)])
		for i, seq := range seqs {
			if want := float64(OpenShopMakespan(os, seq, rule, so)); out[i] != want {
				t.Fatalf("open/%v genome %d: batch %v, kernel %v", rule, i, out[i], want)
			}
		}
	}

	fj := shop.GenerateFlexibleJobShop("b-fj", 6, 5, 4, 3, 71)
	shop.WithSetupTimes(fj, 1, 9, 72)
	fj.SpeedLevels = []float64{1, 1.5, 2}
	bf := NewBatchScratch(fj)
	sf := NewScratch(fj)
	assigns := make([][]int, 65)
	fseqs := make([][]int, 65)
	speeds := make([][]int, 65)
	for i := range assigns {
		assigns[i] = RandomAssignment(fj, r)
		fseqs[i] = RandomOpSequence(fj, r)
		sp := make([]int, fj.TotalOps())
		for k := range sp {
			sp[k] = r.Intn(len(fj.SpeedLevels) * 2)
		}
		speeds[i] = sp
	}
	bf.FlexibleMakespans(assigns, fseqs, speeds, out[:65])
	for i := 0; i < 65; i++ {
		if want := float64(FlexibleMakespan(fj, assigns[i], fseqs[i], speeds[i], sf)); out[i] != want {
			t.Fatalf("flexible genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
	bf.FlexibleMakespans(assigns, fseqs, nil, out[:65])
	for i := 0; i < 65; i++ {
		if want := float64(FlexibleMakespan(fj, assigns[i], fseqs[i], nil, sf)); out[i] != want {
			t.Fatalf("flexible (no speeds) genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
}

// TestBatchWideFallback: durations beyond int32 force the scalar fallback,
// which must still agree with the kernels.
func TestBatchWideFallback(t *testing.T) {
	huge := 1 << 33
	in := &shop.Instance{
		Kind: shop.JobShop, NumMachines: 2,
		Jobs: []shop.Job{
			{Ops: []shop.Operation{
				{Machines: []int{0}, Times: []int{huge}},
				{Machines: []int{1}, Times: []int{3}},
			}},
			{Ops: []shop.Operation{
				{Machines: []int{1}, Times: []int{5}},
				{Machines: []int{0}, Times: []int{huge}},
			}},
		},
	}
	b := NewBatchScratch(in)
	if !b.wide {
		t.Fatal("expected wide fallback for 2^33 durations")
	}
	seqs := [][]int{{0, 1, 0, 1}, {1, 0, 1, 0}, {0, 0, 1, 1}}
	out := make([]float64, len(seqs))
	b.JobShopMakespans(seqs, out)
	for i, seq := range seqs {
		if want := float64(JobShopMakespan(in, seq, b.Scalar())); out[i] != want {
			t.Fatalf("wide genome %d: batch %v, kernel %v", i, out[i], want)
		}
	}
}

// TestBatchRandomInstancesAllSizes is the broad property sweep: fresh random
// instances of the batch-kernel kinds, every batch size in 1..257 worth
// hitting, one shared BatchScratch per instance.
func TestBatchRandomInstancesAllSizes(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 6; trial++ {
		n := 2 + r.Intn(12)
		m := 1 + r.Intn(8)
		js := shop.GenerateJobShop("p-js", n, m, int32(30+trial), int32(60+trial))
		if trial%2 == 1 {
			shop.WithSetupTimes(js, 1, 6, int32(90+trial))
		}
		fs := shop.GenerateFlowShop("p-fs", n, m, int32(120+trial))
		checkBatchAgainstKernel(t, r, js, fs)
	}
}

func checkBatchAgainstKernel(t *testing.T, r *rng.RNG, js, fs *shop.Instance) {
	t.Helper()
	bj, bf := NewBatchScratch(js), NewBatchScratch(fs)
	s := NewScratch(js)
	sf := NewScratch(fs)
	seqs := make([][]int, maxBatchSize())
	perms := make([][]int, maxBatchSize())
	for i := range seqs {
		seqs[i] = RandomOpSequence(js, r)
		perms[i] = RandomPermutation(fs, r)
	}
	out := make([]float64, maxBatchSize())
	for _, size := range batchSizes {
		bj.JobShopMakespans(seqs[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(JobShopMakespan(js, seqs[i], s)); out[i] != want {
				t.Fatalf("%s size %d genome %d: batch %v, kernel %v", js.Name, size, i, out[i], want)
			}
		}
		bf.FlowShopMakespans(perms[:size], out[:size])
		for i := 0; i < size; i++ {
			if want := float64(FlowShopMakespan(fs, perms[i], sf)); out[i] != want {
				t.Fatalf("%s size %d genome %d: batch %v, kernel %v", fs.Name, size, i, out[i], want)
			}
		}
	}
}

// FuzzBatchJobShopEquivalence drives arbitrary instance shapes, seeds and
// batch sizes through batch-vs-kernel equivalence.
func FuzzBatchJobShopEquivalence(f *testing.F) {
	f.Add(int32(1), 4, 3, 17)
	f.Add(int32(2), 1, 1, 1)
	f.Add(int32(3), 9, 7, 257)
	f.Fuzz(func(t *testing.T, seed int32, n, m, size int) {
		if n < 1 || n > 16 || m < 1 || m > 12 || size < 1 || size > 257 {
			t.Skip()
		}
		if seed < 1 || seed > 1<<30 { // Taillard seeds live in [1, 2^31-2]
			t.Skip()
		}
		in := shop.GenerateJobShop("fuzz-js", n, m, seed, seed+1)
		if seed%3 == 0 {
			shop.WithSetupTimes(in, 1, 5, seed+2)
		}
		r := rng.New(uint64(uint32(seed)) + 7)
		b := NewBatchScratch(in)
		s := NewScratch(in)
		seqs := make([][]int, size)
		for i := range seqs {
			seqs[i] = RandomOpSequence(in, r)
		}
		out := make([]float64, size)
		b.JobShopMakespans(seqs, out)
		for i := 0; i < size; i++ {
			if want := float64(JobShopMakespan(in, seqs[i], s)); out[i] != want {
				t.Fatalf("size %d genome %d: batch %v, kernel %v", size, i, out[i], want)
			}
		}
	})
}

// TestBatchZeroAlloc is the batch-path contract: once a BatchScratch is
// built, batch calls allocate nothing for any batch size, ragged or not.
func TestBatchZeroAlloc(t *testing.T) {
	r := rng.New(25)
	js := shop.GenerateJobShop("z-bjs", 15, 10, 912, 913)
	fs := shop.GenerateFlowShop("z-bfs", 20, 5, 911)
	bj, bf := NewBatchScratch(js), NewBatchScratch(fs)
	seqs := make([][]int, 100) // ragged: 64 + 36
	perms := make([][]int, 100)
	for i := range seqs {
		seqs[i] = RandomOpSequence(js, r)
		perms[i] = RandomPermutation(fs, r)
	}
	out := make([]float64, 100)
	if n := testing.AllocsPerRun(50, func() { bj.JobShopMakespans(seqs, out) }); n != 0 {
		t.Errorf("JobShopMakespans allocates %v per batch", n)
	}
	if n := testing.AllocsPerRun(50, func() { bf.FlowShopMakespans(perms, out) }); n != 0 {
		t.Errorf("FlowShopMakespans allocates %v per batch", n)
	}
}
