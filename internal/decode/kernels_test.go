package decode

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shop"
)

// The kernels must be bit-identical to the reference decoders in
// oracle_test.go for every genome. Each property test drives seeded random
// genomes through the makespan kernel, the Into decoder and the exported
// schedule-building decoder (a kernel on a fresh Scratch) and compares each
// with the oracle, sharing one Scratch across all trials so buffer-reuse
// bugs (stale state from a previous evaluation) surface.

func sameSchedule(t *testing.T, name string, got, want *shop.Schedule) {
	t.Helper()
	if len(got.Ops) != len(want.Ops) {
		t.Fatalf("%s: %d assignments, oracle has %d", name, len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		if got.Ops[i] != want.Ops[i] {
			t.Fatalf("%s: assignment %d = %+v, oracle %+v", name, i, got.Ops[i], want.Ops[i])
		}
	}
}

func jobShopInstances() map[string]*shop.Instance {
	withSetup := shop.GenerateJobShop("k-js-setup", 8, 6, 51, 52)
	shop.WithSetupTimes(withSetup, 1, 7, 53)
	return map[string]*shop.Instance{
		"ft06":       shop.FT06(),
		"10x8":       shop.GenerateJobShop("k-js", 10, 8, 41, 42),
		"8x6-setup":  withSetup,
		"15x10":      shop.GenerateJobShop("k-js2", 15, 10, 912, 913),
		"1x1-single": {Kind: shop.JobShop, NumMachines: 1, Jobs: []shop.Job{{Ops: []shop.Operation{{Machines: []int{0}, Times: []int{5}}}}}},
	}
}

func TestJobShopKernelMatchesOracle(t *testing.T) {
	r := rng.New(7)
	s := &Scratch{} // zero value must work and grow across instance shapes
	for name, in := range jobShopInstances() {
		for trial := 0; trial < 40; trial++ {
			seq := RandomOpSequence(in, r)
			want := jobShopOracle(in, seq)
			if got := JobShopMakespan(in, seq, s); got != want.Makespan() {
				t.Fatalf("%s trial %d: kernel %d, oracle %d", name, trial, got, want.Makespan())
			}
			sameSchedule(t, name, JobShopInto(in, seq, s), want)
			sameSchedule(t, name, JobShop(in, seq), want)
			// The disjunctive-graph evaluation is the second oracle (it
			// does not model setup times, so skip it there).
			if in.Setup == nil {
				gms, err := JobShopGraph(in, seq)
				if err != nil {
					t.Fatalf("%s trial %d: graph oracle: %v", name, trial, err)
				}
				if gms != want.Makespan() {
					t.Fatalf("%s trial %d: graph %d, decoder %d", name, trial, gms, want.Makespan())
				}
			}
		}
	}
}

func TestGifflerThompsonKernelMatchesOracle(t *testing.T) {
	r := rng.New(8)
	s := NewScratch(shop.FT06())
	for name, in := range jobShopInstances() {
		for trial := 0; trial < 25; trial++ {
			pri := make([]float64, in.TotalOps())
			for i := range pri {
				pri[i] = r.Float64()
			}
			want := gtOracle(in, pri)
			if got := GifflerThompsonMakespan(in, pri, s); got != want.Makespan() {
				t.Fatalf("%s trial %d: kernel %d, oracle %d", name, trial, got, want.Makespan())
			}
			sameSchedule(t, name, GifflerThompsonInto(in, pri, s), want)
			sameSchedule(t, name, GifflerThompson(in, pri), want)
		}
	}
}

func TestOpenShopKernelMatchesOracle(t *testing.T) {
	r := rng.New(9)
	instances := map[string]*shop.Instance{
		"5x4":   shop.GenerateOpenShop("k-os", 5, 4, 61),
		"10x10": shop.GenerateOpenShop("k-os2", 10, 10, 914),
	}
	s := &Scratch{}
	for name, in := range instances {
		for _, rule := range []OpenRule{EarliestStart, LPTTask, LPTMachine} {
			for trial := 0; trial < 30; trial++ {
				seq := RandomOpSequence(in, r)
				want := openShopOracle(in, seq, rule)
				if got := OpenShopMakespan(in, seq, rule, s); got != want.Makespan() {
					t.Fatalf("%s/%v trial %d: kernel %d, oracle %d", name, rule, trial, got, want.Makespan())
				}
				sameSchedule(t, name+"/"+rule.String(), OpenShopInto(in, seq, rule, s), want)
				sameSchedule(t, name+"/"+rule.String(), OpenShop(in, seq, rule), want)
			}
		}
	}
}

func TestFlexibleKernelMatchesOracle(t *testing.T) {
	r := rng.New(10)
	plain := shop.GenerateFlexibleJobShop("k-fj", 8, 6, 4, 3, 71)
	setup := shop.GenerateFlexibleJobShop("k-fj-setup", 6, 5, 4, 3, 72)
	shop.WithSetupTimes(setup, 1, 9, 73)
	speedy := shop.GenerateFlexibleJobShop("k-fj-speed", 5, 4, 3, 2, 74)
	speedy.SpeedLevels = []float64{1, 1.5, 2}
	instances := map[string]*shop.Instance{"plain": plain, "setup": setup, "speed": speedy}
	s := &Scratch{}
	for name, in := range instances {
		for trial := 0; trial < 30; trial++ {
			assign := RandomAssignment(in, r)
			seq := RandomOpSequence(in, r)
			var speeds []int
			if len(in.SpeedLevels) > 0 {
				speeds = make([]int, in.TotalOps())
				for i := range speeds {
					speeds[i] = r.Intn(len(in.SpeedLevels) * 2) // exercise wrapping
				}
			}
			want := flexibleOracle(in, assign, seq, speeds)
			if got := FlexibleMakespan(in, assign, seq, speeds, s); got != want.Makespan() {
				t.Fatalf("%s trial %d: kernel %d, oracle %d", name, trial, got, want.Makespan())
			}
			sameSchedule(t, name, FlexibleInto(in, assign, seq, speeds, s), want)
			sameSchedule(t, name, Flexible(in, assign, seq, speeds), want)
		}
	}
}

func TestFlowShopKernelMatchesOracle(t *testing.T) {
	r := rng.New(11)
	in := shop.GenerateFlowShop("k-fs", 12, 5, 81)
	s := NewScratch(in)
	for trial := 0; trial < 40; trial++ {
		perm := RandomPermutation(in, r)
		want := flowShopOracle(in, perm)
		if got := FlowShopMakespan(in, perm, s); got != want.Makespan() {
			t.Fatalf("trial %d: kernel %d, oracle %d", trial, got, want.Makespan())
		}
		sameSchedule(t, "flowshop", FlowShopInto(in, perm, s), want)
		sameSchedule(t, "flowshop", FlowShop(in, perm), want)
	}
}

// TestKernelsTolerateOverlongSequences mirrors the oracle's leniency: extra
// tokens beyond a job's operation count are skipped, not decoded.
func TestKernelsTolerateOverlongSequences(t *testing.T) {
	in := shop.FT06()
	r := rng.New(12)
	seq := append(RandomOpSequence(in, r), 0, 1, 2)
	if got, want := JobShopMakespan(in, seq, nil), jobShopOracle(in, seq).Makespan(); got != want {
		t.Fatalf("job shop: kernel %d, oracle %d", got, want)
	}
	os := shop.GenerateOpenShop("k-os3", 4, 4, 62)
	oseq := append(RandomOpSequence(os, r), 3, 3)
	if got, want := OpenShopMakespan(os, oseq, EarliestStart, nil), openShopOracle(os, oseq, EarliestStart).Makespan(); got != want {
		t.Fatalf("open shop: kernel %d, oracle %d", got, want)
	}
}

// TestKernelsZeroAlloc is the hot-path contract: once a Scratch is warm,
// one evaluation performs zero heap allocations.
func TestKernelsZeroAlloc(t *testing.T) {
	r := rng.New(13)

	js := shop.GenerateJobShop("z-js", 15, 10, 912, 913)
	seq := RandomOpSequence(js, r)
	s := NewScratch(js)
	if n := testing.AllocsPerRun(200, func() { JobShopMakespan(js, seq, s) }); n != 0 {
		t.Errorf("JobShopMakespan allocates %v per run", n)
	}

	fs := shop.GenerateFlowShop("z-fs", 20, 5, 911)
	perm := RandomPermutation(fs, r)
	sf := NewScratch(fs)
	if n := testing.AllocsPerRun(200, func() { FlowShopMakespan(fs, perm, sf) }); n != 0 {
		t.Errorf("FlowShopMakespan allocates %v per run", n)
	}

	pri := make([]float64, js.TotalOps())
	for i := range pri {
		pri[i] = r.Float64()
	}
	if n := testing.AllocsPerRun(50, func() { GifflerThompsonMakespan(js, pri, s) }); n != 0 {
		t.Errorf("GifflerThompsonMakespan allocates %v per run", n)
	}

	os := shop.GenerateOpenShop("z-os", 10, 10, 914)
	oseq := RandomOpSequence(os, r)
	so := NewScratch(os)
	if n := testing.AllocsPerRun(100, func() { OpenShopMakespan(os, oseq, EarliestStart, so) }); n != 0 {
		t.Errorf("OpenShopMakespan allocates %v per run", n)
	}

	fj := shop.GenerateFlexibleJobShop("z-fj", 10, 8, 5, 3, 915)
	shop.WithSetupTimes(fj, 1, 9, 916)
	assign := RandomAssignment(fj, r)
	fseq := RandomOpSequence(fj, r)
	sj := NewScratch(fj)
	if n := testing.AllocsPerRun(100, func() { FlexibleMakespan(fj, assign, fseq, nil, sj) }); n != 0 {
		t.Errorf("FlexibleMakespan allocates %v per run", n)
	}

	// The Into decoders reuse the scratch schedule: zero allocations too.
	if n := testing.AllocsPerRun(100, func() { JobShopInto(js, seq, s) }); n != 0 {
		t.Errorf("JobShopInto allocates %v per run", n)
	}
}
