package decode

import (
	"sort"

	"repro/internal/dgraph"
	"repro/internal/shop"
)

// JobShop decodes an operation sequence (permutation with repetition of job
// indices) into a semi-active job shop schedule: the i-th occurrence of job
// j schedules job j's i-th operation as early as its machine and job
// predecessors allow. Sequence-dependent setups, when present, are honoured
// with detached setups (the machine performs the setup as soon as it is
// free, possibly before the job arrives). It is JobShopInto on a fresh
// Scratch, so the caller owns the schedule.
func JobShop(in *shop.Instance, seq []int) *shop.Schedule {
	return JobShopInto(in, seq, nil)
}

// MachineOrders extracts the processing order of jobs' operations on each
// machine from a schedule, as flattened operation IDs sorted by start time.
// It is the bridge from a decoded schedule to its disjunctive-graph
// orientation.
func MachineOrders(s *shop.Schedule) [][]int {
	in := s.Inst
	off := OpOffsets(in)
	// One flat sort by (machine, start, schedule position) replaces the old
	// O(ops * ops-per-machine) per-machine insertion: equal starts keep
	// their schedule order, so the result is identical to a stable
	// insertion by start time.
	type ev struct{ machine, start, pos, id int }
	evs := make([]ev, len(s.Ops))
	for i, a := range s.Ops {
		evs[i] = ev{machine: a.Machine, start: a.Start, pos: i, id: off[a.Job] + a.Op}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.pos < b.pos
	})
	orders := make([][]int, in.NumMachines)
	for lo := 0; lo < len(evs); {
		hi := lo
		for hi < len(evs) && evs[hi].machine == evs[lo].machine {
			hi++
		}
		ids := make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			ids[i-lo] = evs[i].id
		}
		orders[evs[lo].machine] = ids
		lo = hi
	}
	return orders
}

// buildConjunctive adds the job-precedence arcs and returns the flattened
// durations and release lower bounds shared by the graph evaluators.
func buildConjunctive(in *shop.Instance) (g *dgraph.Graph, dur, release []int, off []int) {
	off = OpOffsets(in)
	total := in.TotalOps()
	g = dgraph.New(total)
	dur = make([]int, total)
	release = make([]int, total)
	for j, job := range in.Jobs {
		for k, op := range job.Ops {
			id := off[j] + k
			dur[id] = op.Times[0]
			release[id] = job.Release
			if k > 0 {
				g.AddArc(off[j]+k-1, id, job.Ops[k-1].Times[0])
			}
		}
	}
	return g, dur, release, off
}

// JobShopGraph evaluates an operation sequence through the disjunctive
// graph: the sequence is first decoded semi-actively to fix the machine
// orders, then the makespan is recomputed as the longest path of the
// oriented graph (Somani & Singh's topological-sort evaluation [16]).
// For valid sequences it returns the same makespan as JobShop; the tests
// hold the longest path to the reference decoder's makespan as a second,
// graph-based oracle.
func JobShopGraph(in *shop.Instance, seq []int) (int, error) {
	s := JobShop(in, seq)
	orders := MachineOrders(s)
	g, dur, release, _ := buildConjunctive(in)
	for _, order := range orders {
		for i := 1; i < len(order); i++ {
			g.AddArc(order[i-1], order[i], dur[order[i-1]])
		}
	}
	ms, _, err := g.Makespan(release, dur)
	return ms, err
}

// GifflerThompson builds an active job shop schedule with the Giffler &
// Thompson procedure: repeatedly find the operation with the earliest
// possible completion time, restrict attention to the conflict set on its
// machine, and pick the member with the highest priority. priority is
// indexed by flattened operation ID; ties break toward the lower job index,
// keeping the decoder deterministic. Mui et al. [17] and Lin et al. [21]
// build their GA operators on exactly this active-schedule builder. It is
// GifflerThompsonInto on a fresh Scratch, so the caller owns the schedule.
func GifflerThompson(in *shop.Instance, priority []float64) *shop.Schedule {
	return GifflerThompsonInto(in, priority, nil)
}
