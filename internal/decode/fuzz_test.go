package decode

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shop"
)

// fuzzInstance builds a random n-job, m-machine instance of kind from r,
// wider than the generators: job, open and flexible jobs take 1..m+1
// operations on any machines (revisits included), flow shop jobs visit
// machines 0..m-1 in order, every job gets a release date, and flexible
// operations get 1..m eligible machines. setups adds a random
// sequence-dependent setup tensor.
func fuzzInstance(r *rng.RNG, kind shop.Kind, n, m int, setups bool) *shop.Instance {
	in := &shop.Instance{Name: "fuzz", Kind: kind, NumMachines: m, Jobs: make([]shop.Job, n)}
	for j := range in.Jobs {
		ops := m
		if kind != shop.FlowShop {
			ops = 1 + r.Intn(m+1)
		}
		job := shop.Job{Release: r.Intn(10), Weight: 1}
		for k := 0; k < ops; k++ {
			eligible := 1
			if kind.Flexible() {
				eligible = 1 + r.Intn(m)
			}
			var op shop.Operation
			for e := 0; e < eligible; e++ {
				mi := r.Intn(m)
				if kind == shop.FlowShop {
					mi = k
				}
				op.Machines = append(op.Machines, mi)
				op.Times = append(op.Times, 1+r.Intn(20))
			}
			job.Ops = append(job.Ops, op)
		}
		in.Jobs[j] = job
	}
	if setups {
		in.Setup = make([][][]int, m)
		for mi := range in.Setup {
			in.Setup[mi] = make([][]int, n)
			for a := range in.Setup[mi] {
				in.Setup[mi][a] = make([]int, n)
				for b := range in.Setup[mi][a] {
					in.Setup[mi][a][b] = r.Intn(6)
				}
			}
		}
	}
	if err := in.Validate(); err != nil {
		panic(err)
	}
	return in
}

// fuzzSeqs returns count operation sequences for in, each a random
// permutation with repetition followed by the same number of extra
// in-range tokens, which every decoder must skip.
func fuzzSeqs(r *rng.RNG, in *shop.Instance, count, extra int) [][]int {
	seqs := make([][]int, count)
	for i := range seqs {
		seqs[i] = RandomOpSequence(in, r)
		for e := 0; e < extra; e++ {
			seqs[i] = append(seqs[i], r.Intn(len(in.Jobs)))
		}
	}
	return seqs
}

// fuzzGenomes is the batch size of FuzzKernelsMatchOracles: one lockstep
// tile of four plus a scalar remainder.
const fuzzGenomes = 5

// FuzzKernelsMatchOracles holds every decoding path to the reference
// decoders of oracle_test.go on random instances of every kind: for each
// genome the makespan kernel, the Into schedule (on one Scratch reused
// across all kinds) and the BatchScratch entry must all equal the oracle.
// The kinds are a job shop with releases and with setups, a flow shop, an
// open shop under each rule, a flexible shop with speeds and setups, and
// Giffler-Thompson on the job shop with tie-heavy priorities. The seeds
// are the property tests' shapes and RNG seeds, the over-long ones
// included.
func FuzzKernelsMatchOracles(f *testing.F) {
	f.Add(uint64(7), uint8(10), uint8(8), uint8(0))  // TestJobShopKernelMatchesOracle
	f.Add(uint64(8), uint8(15), uint8(10), uint8(0)) // TestGifflerThompsonKernelMatchesOracle
	f.Add(uint64(9), uint8(5), uint8(4), uint8(0))   // TestOpenShopKernelMatchesOracle
	f.Add(uint64(10), uint8(8), uint8(6), uint8(0))  // TestFlexibleKernelMatchesOracle
	f.Add(uint64(11), uint8(12), uint8(5), uint8(0)) // TestFlowShopKernelMatchesOracle
	f.Add(uint64(12), uint8(6), uint8(6), uint8(3))  // TestKernelsTolerateOverlongSequences, ft06 shape
	f.Add(uint64(12), uint8(4), uint8(4), uint8(2))  // TestKernelsTolerateOverlongSequences, open shop
	f.Add(uint64(1), uint8(1), uint8(1), uint8(0))
	s := &Scratch{}
	f.Fuzz(func(t *testing.T, seed uint64, nb, mb, eb uint8) {
		n, m, extra := 1+int(nb)%12, 1+int(mb)%10, int(eb)%4
		r := rng.New(seed)
		out := make([]float64, fuzzGenomes)
		check := func(kind string, i int, want *shop.Schedule, kernel int, into *shop.Schedule) {
			t.Helper()
			if kernel != want.Makespan() || out[i] != float64(want.Makespan()) {
				t.Fatalf("%s genome %d: kernel %d, batch %v, oracle %d", kind, i, kernel, out[i], want.Makespan())
			}
			sameSchedule(t, kind, into, want)
		}

		for _, setups := range []bool{false, true} {
			js := fuzzInstance(r, shop.JobShop, n, m, setups)
			seqs := fuzzSeqs(r, js, fuzzGenomes, extra)
			NewBatchScratch(js).JobShopMakespans(seqs, out)
			for i, seq := range seqs {
				check("job", i, jobShopOracle(js, seq), JobShopMakespan(js, seq, s), JobShopInto(js, seq, s))
			}
			if setups {
				continue
			}
			pris := make([][]float64, fuzzGenomes)
			for i := range pris {
				pris[i] = make([]float64, js.TotalOps())
				for k := range pris[i] {
					pris[i][k] = float64(r.Intn(4)) // ties exercise the lower-job tie-break
				}
			}
			NewBatchScratch(js).GifflerThompsonMakespans(pris, out)
			for i, pri := range pris {
				check("gt", i, gtOracle(js, pri), GifflerThompsonMakespan(js, pri, s), GifflerThompsonInto(js, pri, s))
			}
		}

		fs := fuzzInstance(r, shop.FlowShop, n, m, false)
		perms := make([][]int, fuzzGenomes)
		for i := range perms {
			perms[i] = RandomPermutation(fs, r)
		}
		NewBatchScratch(fs).FlowShopMakespans(perms, out)
		for i, perm := range perms {
			check("flow", i, flowShopOracle(fs, perm), FlowShopMakespan(fs, perm, s), FlowShopInto(fs, perm, s))
		}

		os := fuzzInstance(r, shop.OpenShop, n, m, false)
		oseqs := fuzzSeqs(r, os, fuzzGenomes, extra)
		bo := NewBatchScratch(os)
		for _, rule := range []OpenRule{EarliestStart, LPTTask, LPTMachine} {
			bo.OpenShopMakespans(oseqs, rule, out)
			for i, seq := range oseqs {
				check("open/"+rule.String(), i, openShopOracle(os, seq, rule), OpenShopMakespan(os, seq, rule, s), OpenShopInto(os, seq, rule, s))
			}
		}

		fj := fuzzInstance(r, shop.FlexibleJobShop, n, m, seed%2 == 0)
		fj.SpeedLevels = []float64{1, 1.5, 2}
		fseqs := fuzzSeqs(r, fj, fuzzGenomes, extra)
		assigns, speeds := make([][]int, fuzzGenomes), make([][]int, fuzzGenomes)
		for i := range assigns {
			assigns[i], speeds[i] = make([]int, fj.TotalOps()), make([]int, fj.TotalOps())
			for k := range assigns[i] {
				assigns[i][k], speeds[i][k] = r.Intn(2*m), r.Intn(6) // both wrap
			}
		}
		NewBatchScratch(fj).FlexibleMakespans(assigns, fseqs, speeds, out)
		for i, seq := range fseqs {
			check("flexible", i, flexibleOracle(fj, assigns[i], seq, speeds[i]),
				FlexibleMakespan(fj, assigns[i], seq, speeds[i], s), FlexibleInto(fj, assigns[i], seq, speeds[i], s))
		}
	})
}
