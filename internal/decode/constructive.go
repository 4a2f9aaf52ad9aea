package decode

import (
	"sort"

	"repro/internal/shop"
)

// Johnson returns the optimal permutation for a two-machine flow shop
// without release dates (Johnson's rule, the classical F2||Cmax result):
// jobs with p1 <= p2 first in ascending p1, then the remaining jobs in
// descending p2. The returned schedule is provably makespan-optimal, which
// makes it a powerful oracle for GA correctness tests: any configured GA
// must reach exactly this makespan on 2-machine instances.
//
// It panics if the instance is not a 2-machine flow shop or has release
// dates (Johnson's rule does not apply there).
func Johnson(in *shop.Instance) *shop.Schedule {
	if in.Kind != shop.FlowShop || in.NumMachines != 2 {
		panic("decode: Johnson requires a 2-machine flow shop")
	}
	for _, j := range in.Jobs {
		if j.Release != 0 {
			panic("decode: Johnson does not handle release dates")
		}
	}
	var first, second []int
	for j, job := range in.Jobs {
		if job.Ops[0].Times[0] <= job.Ops[1].Times[0] {
			first = append(first, j)
		} else {
			second = append(second, j)
		}
	}
	sort.SliceStable(first, func(a, b int) bool {
		return in.Jobs[first[a]].Ops[0].Times[0] < in.Jobs[first[b]].Ops[0].Times[0]
	})
	sort.SliceStable(second, func(a, b int) bool {
		return in.Jobs[second[a]].Ops[1].Times[0] > in.Jobs[second[b]].Ops[1].Times[0]
	})
	return FlowShop(in, append(first, second...))
}

// NEH builds a flow shop permutation with the Nawaz-Enscore-Ham insertion
// heuristic, the strongest classical constructive method for F||Cmax: jobs
// are taken in decreasing total processing time and each is inserted at the
// position of the partial sequence that minimises the partial makespan.
// It returns the permutation and its makespan.
func NEH(in *shop.Instance) ([]int, int) {
	if in.Kind != shop.FlowShop {
		panic("decode: NEH requires a flow shop")
	}
	n := len(in.Jobs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return in.Jobs[order[a]].TotalTime() > in.Jobs[order[b]].TotalTime()
	})
	s := NewScratch(in)
	seq := make([]int, 0, n)
	trial := make([]int, 0, n)
	for _, j := range order {
		bestPos, bestMS := 0, -1
		for pos := 0; pos <= len(seq); pos++ {
			trial = trial[:0]
			trial = append(trial, seq[:pos]...)
			trial = append(trial, j)
			trial = append(trial, seq[pos:]...)
			ms := FlowShopMakespan(in, trial, s)
			if bestMS < 0 || ms < bestMS {
				bestPos, bestMS = pos, ms
			}
		}
		seq = append(seq[:bestPos], append([]int{j}, seq[bestPos:]...)...)
	}
	return seq, FlowShopMakespan(in, seq, s)
}
