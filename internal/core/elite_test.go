package core

import (
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/rng"
)

// tieProblem is a permutation problem with a deliberately coarse
// objective — displaced elements divided by 4, plus 1 — so a population
// holds few distinct objective values and many ties, which is where the
// order of the elite selection matters.
func tieProblem(n int) FuncProblem[[]int] {
	return FuncProblem[[]int]{
		RandomFn: func(r *rng.RNG) []int { return r.Perm(n) },
		EvaluateFn: func(g []int) float64 {
			bad := 0
			for i, v := range g {
				if v != i {
					bad++
				}
			}
			return float64(bad/4 + 1)
		},
		CloneFn:     func(g []int) []int { return append([]int(nil), g...) },
		CloneIntoFn: func(dst, src []int) []int { return append(dst[:0], src...) },
	}
}

// sortedIndices is the reference ranking: population indices ordered by
// ascending objective with a stable insertion sort, so ties keep index
// order. bestK must return its first k entries and worstK its last k,
// reversed.
func sortedIndices[G any](pop []Individual[G]) []int {
	idx := make([]int, len(pop))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && pop[idx[j-1]].Obj > pop[idx[j]].Obj; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	return idx
}

// TestEliteSelectionMatchesStableSort compares bestK and worstK with the
// stable-sort reference on populations drawn from 1 to n distinct
// objective values (heavy ties down to a single value, infinities
// included), for k in {1, 2, n/2, n, n+3} and the degenerate k <= 0,
// reusing one buffer of varying capacity throughout.
func TestEliteSelectionMatchesStableSort(t *testing.T) {
	r := rng.New(11)
	var bufA, bufB []int
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		distinct := 1 + r.Intn(n)
		pop := make([]Individual[[]int], n)
		for i := range pop {
			pop[i].Obj = float64(r.Intn(distinct))
			if distinct > 2 && r.Intn(20) == 0 {
				pop[i].Obj = math.Inf(1 - 2*r.Intn(2))
			}
		}
		order := sortedIndices(pop)
		for _, k := range []int{-1, 0, 1, 2, n / 2, n, n + 3} {
			want := min(max(k, 0), n)
			bufA = bestK(bufA, pop, k)
			bufB = worstK(bufB, pop, k)
			if len(bufA) != want || len(bufB) != want {
				t.Fatalf("n=%d k=%d: selected %d best, %d worst; want %d", n, k, len(bufA), len(bufB), want)
			}
			for i := 0; i < want; i++ {
				if bufA[i] != order[i] {
					t.Fatalf("n=%d k=%d: best %v, stable sort prefix %v (objs %v)", n, k, bufA, order[:want], objs(pop))
				}
				if bufB[i] != order[n-1-i] {
					t.Fatalf("n=%d k=%d: worst %v, stable sort suffix reversed differs at %d (objs %v)", n, k, bufB, i, objs(pop))
				}
			}
		}
	}
}

func objs[G any](pop []Individual[G]) []float64 {
	o := make([]float64, len(pop))
	for i, ind := range pop {
		o[i] = ind.Obj
	}
	return o
}

// trajectoryDigest steps e gens times and hashes every generation's
// population, genomes and objectives, in population order.
func trajectoryDigest(e *Engine[[]int], gens int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for g := 0; g < gens; g++ {
		e.Step()
		for _, ind := range e.pop {
			put(math.Float64bits(ind.Obj))
			for _, x := range ind.Genome {
				put(uint64(x))
			}
		}
	}
	return h.Sum64()
}

// TestEliteTrajectoriesPinned pins whole trajectories of tie-heavy runs
// through both elite-selection callers — elitism and immigration elites —
// for elite counts from 1 to Pop-1 at several worker counts (which must
// not matter). The elitism digests of elite-1, elite-3 and elite-half were
// recorded with the full stable insertion sort the selection replaced, so
// any change in which individuals are carried or displaced, or in their
// order among ties, shows here.
func TestEliteTrajectoriesPinned(t *testing.T) {
	const pop, gens = 24, 40
	imm := func(best float64) Immigration {
		return Immigration{Enabled: true, BestFrac: best, CrossFrac: (1 - best) * 3 / 4, RandomFrac: (1 - best) / 4}
	}
	cases := []struct {
		name    string
		elite   int
		workers int
		imm     Immigration
		want    uint64
	}{
		{"sharded/elite-1", 1, 0, Immigration{}, 0x4193bc871d12a628},
		{"sharded/elite-1", 1, 2, Immigration{}, 0x4193bc871d12a628},
		{"sharded/elite-2", 2, 0, Immigration{}, 0xbfcac9ca85ae4faa},
		{"sharded/elite-3", 3, 1, Immigration{}, 0x11d54b9e1e5f8109},
		{"sharded/elite-half", pop / 2, 0, Immigration{}, 0x19f47e5e743b4043},
		{"sharded/elite-half", pop / 2, 2, Immigration{}, 0x19f47e5e743b4043},
		{"sharded/elite-all", pop - 1, 0, Immigration{}, 0x19f47e5e743b4043},
		{"immigration/best-1", 1, 0, imm(0.05), 0x976618c40fde050b},
		{"immigration/best-half", 1, 0, imm(0.5), 0x49f10674e2bfcf30},
		{"immigration/best-half", 1, 4, imm(0.5), 0x49f10674e2bfcf30},
		{"immigration/best-all", 1, 2, Immigration{Enabled: true, BestFrac: 1}, 0xeba4b620ce593f25},
	}
	for _, c := range cases {
		e := New[[]int](tieProblem(10), rng.New(31), Config[[]int]{
			Pop: pop, Elite: c.elite, Workers: c.workers, Immigration: c.imm,
			Ops: shardedOps(), Term: Termination{MaxGenerations: 1 << 30},
		})
		got := trajectoryDigest(e, gens)
		e.Close()
		if got != c.want {
			t.Errorf("%s (workers %d): trajectory digest %#x, want %#x", c.name, c.workers, got, c.want)
		}
	}
}
