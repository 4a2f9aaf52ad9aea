package decode

import (
	"repro/internal/dgraph"
	"repro/internal/shop"
)

// Blocking evaluates an operation sequence on the job shop *with blocking*
// of AitZai et al. [14][15]: there is no intermediate buffer, so a machine
// stays occupied by a job until the job starts its next operation. In the
// alternative-graph model this replaces the machine arc a->b (weight p(a))
// with an arc from a's job successor to b of weight 0; orientations whose
// graph contains a cycle correspond to deadlocked (swap-blocked) schedules.
//
// It returns the blocking makespan and true for feasible orientations, or a
// penalised makespan (twice the total processing time) and false when the
// orientation deadlocks — the standard GA treatment that lets selection
// drive infeasible individuals out of the population.
func Blocking(in *shop.Instance, seq []int) (int, bool) {
	g, dur, release, _ := blockingGraph(in, seq)
	ms, _, err := g.Makespan(release, dur)
	if err != nil {
		penalty := 0
		for _, d := range dur {
			penalty += d
		}
		return 2 * penalty, false
	}
	return ms, true
}

// BlockingSchedule reconstructs the full blocking schedule (start times from
// the longest-path evaluation) for feasible sequences; the second result is
// false when the orientation deadlocks.
func BlockingSchedule(in *shop.Instance, seq []int) (*shop.Schedule, bool) {
	g, _, release, off := blockingGraph(in, seq)
	start, err := g.LongestPath(release)
	if err != nil {
		return nil, false
	}
	out := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for j, job := range in.Jobs {
		for k, op := range job.Ops {
			id := off[j] + k
			out.Ops = append(out.Ops, shop.Assignment{
				Job: j, Op: k, Machine: op.Machines[0],
				Start: start[id], End: start[id] + op.Times[0],
			})
		}
	}
	return out, true
}

// blockingGraph builds the alternative graph shared by Blocking and
// BlockingSchedule: the conjunctive job arcs plus, for each consecutive
// pair a->b in the machine orders that the semi-active decoding of seq
// fixes, a blocking arc from a's job successor to b (b may start only once
// a's job has left the machine) or, at a job's last operation, the plain
// machine arc of weight p(a).
func blockingGraph(in *shop.Instance, seq []int) (g *dgraph.Graph, dur, release, off []int) {
	orders := MachineOrders(JobShop(in, seq))
	g, dur, release, off = buildConjunctive(in)
	// An operation's job successor is id+1 unless it is its job's last.
	last := make([]bool, in.TotalOps())
	for j := range in.Jobs {
		if end := off[j+1]; end > off[j] {
			last[end-1] = true
		}
	}
	for _, order := range orders {
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if !last[a] {
				g.AddArc(a+1, b, 0)
			} else {
				g.AddArc(a, b, dur[a])
			}
		}
	}
	return g, dur, release, off
}
