package decode

import "repro/internal/shop"

// The reference decoders. Each builds its schedule with a plain loop of its
// own, sharing no code with the Scratch kernels that every exported decoder
// runs, and is the ground truth the kernel, Into and batch paths are pinned
// to (kernels_test.go, the decode semantics tests and
// FuzzKernelsMatchOracles).

// jobShopOracle is the reference JobShop: semi-active decoding with
// detached sequence-dependent setups.
func jobShopOracle(in *shop.Instance, seq []int) *shop.Schedule {
	n := len(in.Jobs)
	nextOp := make([]int, n)
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	lastJob := make([]int, in.NumMachines)
	for i := range lastJob {
		lastJob[i] = -1
	}
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for _, j := range seq {
		k := nextOp[j]
		if k >= len(in.Jobs[j].Ops) {
			continue // tolerate over-long sequences; Repair should prevent this
		}
		op := &in.Jobs[j].Ops[k]
		m := op.Machines[0]
		p := op.Times[0]
		setup := 0
		if in.Setup != nil {
			prev := lastJob[m]
			if prev < 0 {
				prev = j // initial setup
			}
			setup = in.SetupTime(m, prev, j)
		}
		start := jobReady[j]
		if t := machFree[m] + setup; t > start {
			start = t
		}
		end := start + p
		s.Ops = append(s.Ops, shop.Assignment{Job: j, Op: k, Machine: m, Start: start, End: end})
		jobReady[j] = end
		machFree[m] = end
		lastJob[m] = j
		nextOp[j] = k + 1
	}
	return s
}

// flowShopOracle is the reference FlowShop, indexing machine-free times by
// machine rather than by stage.
func flowShopOracle(in *shop.Instance, perm []int) *shop.Schedule {
	m := in.NumMachines
	machFree := make([]int, m)
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for _, j := range perm {
		ready := in.Jobs[j].Release
		for stage, op := range in.Jobs[j].Ops {
			mi := op.Machines[0]
			start := ready
			if machFree[mi] > start {
				start = machFree[mi]
			}
			end := start + op.Times[0]
			s.Ops = append(s.Ops, shop.Assignment{
				Job: j, Op: stage, Machine: mi, Start: start, End: end,
			})
			machFree[mi] = end
			ready = end
		}
	}
	return s
}

// gtOracle is the reference GifflerThompson, re-deriving every candidate
// from the instance on each iteration.
func gtOracle(in *shop.Instance, priority []float64) *shop.Schedule {
	off := OpOffsets(in)
	n := len(in.Jobs)
	nextOp := make([]int, n)
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	remaining := in.TotalOps()
	for remaining > 0 {
		// Find the candidate operation with minimal earliest completion time.
		bestJob, bestECT, bestM := -1, 0, -1
		for j := 0; j < n; j++ {
			k := nextOp[j]
			if k >= len(in.Jobs[j].Ops) {
				continue
			}
			op := &in.Jobs[j].Ops[k]
			m := op.Machines[0]
			est := jobReady[j]
			if machFree[m] > est {
				est = machFree[m]
			}
			ect := est + op.Times[0]
			if bestJob < 0 || ect < bestECT {
				bestJob, bestECT, bestM = j, ect, m
			}
		}
		// Conflict set: candidates on bestM that could start before bestECT.
		chosen := -1
		var chosenPri float64
		for j := 0; j < n; j++ {
			k := nextOp[j]
			if k >= len(in.Jobs[j].Ops) {
				continue
			}
			op := &in.Jobs[j].Ops[k]
			if op.Machines[0] != bestM {
				continue
			}
			est := jobReady[j]
			if machFree[bestM] > est {
				est = machFree[bestM]
			}
			if est >= bestECT {
				continue
			}
			pri := priority[off[j]+k]
			if chosen < 0 || pri > chosenPri {
				chosen, chosenPri = j, pri
			}
		}
		k := nextOp[chosen]
		op := &in.Jobs[chosen].Ops[k]
		start := jobReady[chosen]
		if machFree[bestM] > start {
			start = machFree[bestM]
		}
		end := start + op.Times[0]
		s.Ops = append(s.Ops, shop.Assignment{Job: chosen, Op: k, Machine: bestM, Start: start, End: end})
		jobReady[chosen] = end
		machFree[bestM] = end
		nextOp[chosen] = k + 1
		remaining--
	}
	return s
}

// openShopOracle is the reference OpenShop.
func openShopOracle(in *shop.Instance, seq []int, rule OpenRule) *shop.Schedule {
	n := len(in.Jobs)
	done := make([][]bool, n)
	for j := range done {
		done[j] = make([]bool, len(in.Jobs[j].Ops))
	}
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	machLoad := make([]int, in.NumMachines) // remaining unscheduled load
	for _, job := range in.Jobs {
		for _, op := range job.Ops {
			machLoad[op.Machines[0]] += op.Times[0]
		}
	}
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for _, j := range seq {
		// Candidate: the remaining ops of job j.
		pick := -1
		var pickStart, pickP, pickLoad int
		for k, op := range in.Jobs[j].Ops {
			if done[j][k] {
				continue
			}
			m := op.Machines[0]
			start := jobReady[j]
			if machFree[m] > start {
				start = machFree[m]
			}
			p := op.Times[0]
			better := false
			switch rule {
			case EarliestStart:
				better = pick < 0 || start < pickStart || (start == pickStart && p > pickP)
			case LPTTask:
				better = pick < 0 || p > pickP
			case LPTMachine:
				better = pick < 0 || machLoad[m] > pickLoad
			}
			if better {
				pick, pickStart, pickP, pickLoad = k, start, p, machLoad[m]
			}
		}
		if pick < 0 {
			continue // job already fully scheduled; tolerate excess tokens
		}
		op := in.Jobs[j].Ops[pick]
		m := op.Machines[0]
		end := pickStart + op.Times[0]
		s.Ops = append(s.Ops, shop.Assignment{Job: j, Op: pick, Machine: m, Start: pickStart, End: end})
		done[j][pick] = true
		jobReady[j] = end
		machFree[m] = end
		machLoad[m] -= op.Times[0]
	}
	return s
}

// flexibleOracle is the reference Flexible.
func flexibleOracle(in *shop.Instance, assign, seq []int, speeds []int) *shop.Schedule {
	off := OpOffsets(in)
	n := len(in.Jobs)
	nextOp := make([]int, n)
	jobReady := make([]int, n)
	for j := range jobReady {
		jobReady[j] = in.Jobs[j].Release
	}
	machFree := make([]int, in.NumMachines)
	lastJob := make([]int, in.NumMachines)
	for i := range lastJob {
		lastJob[i] = -1
	}
	s := &shop.Schedule{Inst: in, Ops: make([]shop.Assignment, 0, in.TotalOps())}
	for _, j := range seq {
		k := nextOp[j]
		if k >= len(in.Jobs[j].Ops) {
			continue
		}
		op := &in.Jobs[j].Ops[k]
		id := off[j] + k
		mi := 0
		if id < len(assign) {
			mi = assign[id] % len(op.Machines)
			if mi < 0 {
				mi += len(op.Machines)
			}
		}
		m := op.Machines[mi]
		p := op.Times[mi]
		speed := 0
		if speeds != nil && id < len(speeds) && len(in.SpeedLevels) > 0 {
			speed = speeds[id] % len(in.SpeedLevels)
			if speed < 0 {
				speed += len(in.SpeedLevels)
			}
			p = shop.ScaledDuration(p, in.SpeedLevels[speed])
		}
		setup := 0
		if in.Setup != nil {
			prev := lastJob[m]
			if prev < 0 {
				prev = j
			}
			setup = in.SetupTime(m, prev, j)
		}
		start := jobReady[j]
		if t := machFree[m] + setup; t > start {
			start = t
		}
		end := start + p
		s.Ops = append(s.Ops, shop.Assignment{
			Job: j, Op: k, Machine: m, Start: start, End: end, Speed: speed,
		})
		jobReady[j] = end
		machFree[m] = end
		lastJob[m] = j
		nextOp[j] = k + 1
	}
	return s
}
