package decode

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/shop"
)

func twoMachineFlow(n int, seed int32) *shop.Instance {
	return shop.GenerateFlowShop("f2", n, 2, seed)
}

// TestJohnsonOptimalBruteForce verifies Johnson's rule against exhaustive
// enumeration on small instances — the strongest possible oracle.
func TestJohnsonOptimalBruteForce(t *testing.T) {
	for _, seed := range []int32{11, 222, 3333, 44444} {
		in := twoMachineFlow(7, seed)
		js := Johnson(in)
		if err := js.Validate(); err != nil {
			t.Fatal(err)
		}
		jms := js.Makespan()
		best := 1 << 30
		perm := make([]int, 7)
		var walk func(used uint, depth int)
		s := NewScratch(in)
		walk = func(used uint, depth int) {
			if depth == 7 {
				if ms := FlowShopMakespan(in, perm, s); ms < best {
					best = ms
				}
				return
			}
			for j := 0; j < 7; j++ {
				if used&(1<<j) == 0 {
					perm[depth] = j
					walk(used|1<<j, depth+1)
				}
			}
		}
		walk(0, 0)
		if jms != best {
			t.Fatalf("seed %d: Johnson %d != brute force optimum %d", seed, jms, best)
		}
	}
}

func TestJohnsonPanics(t *testing.T) {
	for name, in := range map[string]*shop.Instance{
		"3 machines": shop.GenerateFlowShop("f3", 4, 3, 1),
		"job shop":   shop.GenerateJobShop("j2", 4, 2, 1, 2),
		"releases":   shop.WithReleases(twoMachineFlow(4, 1), 10, 3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Johnson(in)
		}()
	}
}

func TestNEHBeatsDispatching(t *testing.T) {
	for _, seed := range []int32{7, 77, 777} {
		in := shop.GenerateFlowShop("neh", 20, 5, seed)
		_, nehMS := NEH(in)
		ref := Reference(in, shop.Makespan)
		if float64(nehMS) > ref {
			t.Errorf("seed %d: NEH %d worse than dispatching reference %.0f", seed, nehMS, ref)
		}
	}
}

func TestNEHPermutationValid(t *testing.T) {
	in := shop.GenerateFlowShop("nehv", 15, 4, 99)
	seq, ms := NEH(in)
	seen := make([]bool, 15)
	for _, j := range seq {
		if j < 0 || j >= 15 || seen[j] {
			t.Fatalf("NEH produced invalid permutation %v", seq)
		}
		seen[j] = true
	}
	s := FlowShop(in, seq)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != ms {
		t.Fatalf("reported makespan %d != schedule %d", ms, s.Makespan())
	}
}

func TestNEHMatchesJohnsonOnTwoMachines(t *testing.T) {
	// NEH is a heuristic, but on 2 machines it should land close to the
	// Johnson optimum; enforce within 5%.
	for _, seed := range []int32{5, 55, 555} {
		in := twoMachineFlow(12, seed)
		opt := Johnson(in).Makespan()
		_, neh := NEH(in)
		if float64(neh) > 1.05*float64(opt) {
			t.Errorf("seed %d: NEH %d vs Johnson optimum %d", seed, neh, opt)
		}
	}
}

func TestNEHPanicsOnNonFlow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NEH(shop.GenerateJobShop("x", 3, 3, 1, 2))
}

// TestGAReachesJohnsonOptimum is an oracle integration test: the simple GA
// must find the provably optimal makespan of a 2-machine flow shop.
func TestGAReachesJohnsonOptimum(t *testing.T) {
	in := twoMachineFlow(10, 4242)
	opt := float64(Johnson(in).Makespan())
	r := rng.New(9)
	// Plain random restarts would struggle; a tiny GA loop suffices. Use
	// the same machinery the engine wraps, but inline to avoid an import
	// cycle with shopga.
	best := 1 << 30
	s := NewScratch(in)
	pop := make([][]int, 40)
	for i := range pop {
		pop[i] = RandomPermutation(in, r)
	}
	for gen := 0; gen < 200 && float64(best) > opt; gen++ {
		for i := range pop {
			// Tournament of 2, swap-mutate a clone of the winner.
			a, b := pop[r.Intn(len(pop))], pop[r.Intn(len(pop))]
			if FlowShopMakespan(in, b, s) < FlowShopMakespan(in, a, s) {
				a = b
			}
			child := append([]int(nil), a...)
			x, y := r.Intn(len(child)), r.Intn(len(child))
			child[x], child[y] = child[y], child[x]
			if FlowShopMakespan(in, child, s) <= FlowShopMakespan(in, pop[i], s) {
				pop[i] = child
			}
			if ms := FlowShopMakespan(in, pop[i], s); ms < best {
				best = ms
			}
		}
	}
	if float64(best) != opt {
		t.Fatalf("GA reached %d, Johnson optimum is %.0f", best, opt)
	}
}
