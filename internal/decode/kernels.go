package decode

import "repro/internal/shop"

// This file holds the one decoding loop of each machine environment. The
// GPU follow-up works to the survey (Luo et al., arXiv:1903.10722 and
// 1903.10741) obtain their speedups by making the fitness kernel
// allocation-free and batch-friendly; the loops below are the CPU
// equivalent. Each *Decode function decodes a genome into the buffers of a
// caller-owned Scratch and returns the makespan, appending every
// assignment to a schedule only when one is passed. The makespan kernels
// pass none, the *Into decoders pass the Scratch's reusable schedule, and
// the schedule-building decoders (JobShop, FlowShop, GifflerThompson,
// OpenShop, Flexible) are *Into calls on a fresh Scratch. The reference
// loops these replaced live on as test oracles (oracle_test.go), and the
// property and fuzz tests pin every kernel to them bit for bit.

// Scratch is a reusable workspace for the makespan kernels and the
// schedule-reusing *Into decoders. A Scratch is not safe for concurrent use;
// wrap it in a sync.Pool (as internal/shopga does) to share one pool of
// workspaces between parallel evaluators. The zero value works and grows on
// first use; NewScratch pre-sizes every buffer so that subsequent
// evaluations on instances of the same or smaller shape never allocate.
type Scratch struct {
	nextOp   []int
	jobReady []int
	machFree []int
	lastJob  []int
	machLoad []int
	done     []bool
	off      []int
	candMach []int
	candDur  []int

	// sched is the schedule reused by the Into decoders. It lives behind a
	// pointer-stable field so callers can hold the *shop.Schedule returned
	// by an Into decoder until the next use of this Scratch.
	sched shop.Schedule
}

// NewScratch returns a Scratch pre-sized for in, so every kernel call on in
// (or any smaller instance) is allocation-free.
func NewScratch(in *shop.Instance) *Scratch {
	n := len(in.Jobs)
	total := in.TotalOps()
	return &Scratch{
		nextOp:   make([]int, n),
		jobReady: make([]int, n),
		machFree: make([]int, in.NumMachines),
		lastJob:  make([]int, in.NumMachines),
		machLoad: make([]int, in.NumMachines),
		done:     make([]bool, total),
		off:      make([]int, n+1),
		candMach: make([]int, n),
		candDur:  make([]int, n),
		sched:    shop.Schedule{Ops: make([]shop.Assignment, 0, total)},
	}
}

// growInts returns buf resized to n, reusing capacity when possible. The
// contents are unspecified; callers must initialise.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// jobState resets the per-job decoding state shared by the sequence kernels:
// next-operation cursors at zero and job-ready times at the release dates.
func (s *Scratch) jobState(in *shop.Instance) {
	n := len(in.Jobs)
	s.nextOp = growInts(s.nextOp, n)
	s.jobReady = growInts(s.jobReady, n)
	for j := 0; j < n; j++ {
		s.nextOp[j] = 0
		s.jobReady[j] = in.Jobs[j].Release
	}
}

// machState resets machine-free times and, when withLast, the last-job
// markers used by sequence-dependent setups.
func (s *Scratch) machState(in *shop.Instance, withLast bool) {
	m := in.NumMachines
	s.machFree = growInts(s.machFree, m)
	for i := 0; i < m; i++ {
		s.machFree[i] = 0
	}
	if withLast {
		s.lastJob = growInts(s.lastJob, m)
		for i := 0; i < m; i++ {
			s.lastJob[i] = -1
		}
	}
}

// offsets fills s.off with the flattened operation offsets of in (the
// allocation-free OpOffsets).
func (s *Scratch) offsets(in *shop.Instance) []int {
	n := len(in.Jobs)
	s.off = growInts(s.off, n+1)
	s.off[0] = 0
	for j, job := range in.Jobs {
		s.off[j+1] = s.off[j] + len(job.Ops)
	}
	return s.off
}

// schedule resets and returns the reusable schedule for the Into decoders.
func (s *Scratch) schedule(in *shop.Instance) *shop.Schedule {
	s.sched.Inst = in
	if cap(s.sched.Ops) < in.TotalOps() {
		s.sched.Ops = make([]shop.Assignment, 0, in.TotalOps())
	} else {
		s.sched.Ops = s.sched.Ops[:0]
	}
	return &s.sched
}

// scratchOrNew tolerates a nil scratch for one-off calls: a fresh zero
// Scratch, which grows only the buffers the call uses.
func scratchOrNew(s *Scratch) *Scratch {
	if s == nil {
		return &Scratch{}
	}
	return s
}

// jobShopDecode runs the semi-active decoding loop shared by the makespan
// kernel and the Into decoder, appending assignments to out when non-nil,
// and returns the makespan.
func jobShopDecode(in *shop.Instance, seq []int, s *Scratch, out *shop.Schedule) int {
	s.jobState(in)
	s.machState(in, in.Setup != nil)
	ms := 0
	for _, j := range seq {
		k := s.nextOp[j]
		if k >= len(in.Jobs[j].Ops) {
			continue // skip tokens beyond the job's operations (over-long sequences)
		}
		op := &in.Jobs[j].Ops[k]
		m := op.Machines[0]
		setup := 0
		if in.Setup != nil {
			prev := s.lastJob[m]
			if prev < 0 {
				prev = j
			}
			setup = in.SetupTime(m, prev, j)
			s.lastJob[m] = j
		}
		start := s.jobReady[j]
		if t := s.machFree[m] + setup; t > start {
			start = t
		}
		end := start + op.Times[0]
		if out != nil {
			out.Ops = append(out.Ops, shop.Assignment{Job: j, Op: k, Machine: m, Start: start, End: end})
		}
		s.jobReady[j] = end
		s.machFree[m] = end
		s.nextOp[j] = k + 1
		if end > ms {
			ms = end
		}
	}
	return ms
}

// JobShopMakespan is the allocation-free counterpart of
// JobShop(in, seq).Makespan(): it runs the same semi-active decoding loop,
// including detached sequence-dependent setups, but tracks only the running
// maximum completion time. s may be nil for a one-off call.
func JobShopMakespan(in *shop.Instance, seq []int, s *Scratch) int {
	return jobShopDecode(in, seq, scratchOrNew(s), nil)
}

// JobShopInto decodes like JobShop but reuses s's buffers and schedule,
// allocating nothing once s is warm. The returned schedule is owned by s and
// is valid until s's next use; callers that keep it must copy it first.
func JobShopInto(in *shop.Instance, seq []int, s *Scratch) *shop.Schedule {
	s = scratchOrNew(s)
	out := s.schedule(in)
	jobShopDecode(in, seq, s, out)
	return out
}

// flowShopDecode runs the completion-time recurrence shared by the
// makespan kernel and the Into decoder over the machine-free row,
// appending assignments to out when non-nil, and returns the makespan.
// Stage k is machine k: Instance.Validate rejects flow shops that route a
// job any other way.
func flowShopDecode(in *shop.Instance, perm []int, s *Scratch, out *shop.Schedule) int {
	s.machState(in, false)
	c := s.machFree
	for _, j := range perm {
		job := &in.Jobs[j]
		prev := job.Release
		for k := range job.Ops {
			prev = max(prev, c[k]) + job.Ops[k].Times[0]
			c[k] = prev
		}
		if out != nil {
			// c holds this job's completion at every stage. Emitting after
			// the recurrence keeps the makespan kernel's inner loop free of
			// the schedule branch.
			for k := range job.Ops {
				end := c[k]
				out.Ops = append(out.Ops, shop.Assignment{Job: j, Op: k, Machine: k, Start: end - job.Ops[k].Times[0], End: end})
			}
		}
	}
	// Completions rise along a job's stages, so the last stage holds the
	// makespan.
	return c[len(c)-1]
}

// FlowShopMakespan is the allocation-free counterpart of
// FlowShop(in, perm).Makespan(), the hot path of flow shop fitness
// evaluation. s may be nil for a one-off call.
func FlowShopMakespan(in *shop.Instance, perm []int, s *Scratch) int {
	return flowShopDecode(in, perm, scratchOrNew(s), nil)
}

// FlowShopInto decodes like FlowShop but reuses s's buffers and schedule.
// The returned schedule is valid until s's next use.
func FlowShopInto(in *shop.Instance, perm []int, s *Scratch) *shop.Schedule {
	s = scratchOrNew(s)
	out := s.schedule(in)
	flowShopDecode(in, perm, s, out)
	return out
}

// gtState primes the per-job candidate tables consumed by gtPick: the
// machine and duration of each job's next unscheduled operation (machine -1
// once the job is exhausted). gtAdvance maintains them incrementally, so
// the two conflict scans per scheduled operation read two flat int arrays
// instead of re-deriving Ops[k].Machines[0] / Times[0] through three
// pointer hops each iteration.
func (s *Scratch) gtState(in *shop.Instance) {
	n := len(in.Jobs)
	s.candMach = growInts(s.candMach, n)
	s.candDur = growInts(s.candDur, n)
	for j := 0; j < n; j++ {
		if len(in.Jobs[j].Ops) == 0 {
			s.candMach[j] = -1
			continue
		}
		op := &in.Jobs[j].Ops[0]
		s.candMach[j] = op.Machines[0]
		s.candDur[j] = op.Times[0]
	}
}

// gtAdvance records that job j's operation k was scheduled and refreshes
// j's candidate tables for the next pick.
func (s *Scratch) gtAdvance(in *shop.Instance, j, k int) {
	s.nextOp[j] = k + 1
	if k+1 >= len(in.Jobs[j].Ops) {
		s.candMach[j] = -1
		return
	}
	op := &in.Jobs[j].Ops[k+1]
	s.candMach[j] = op.Machines[0]
	s.candDur[j] = op.Times[0]
}

// gtPick runs one Giffler-Thompson iteration's selection: find the
// candidate with minimal earliest completion time, then the
// highest-priority member of the conflict set on its machine. It returns
// the chosen job and its machine. Callers must have primed the candidate
// tables with gtState and keep them current with gtAdvance.
func gtPick(in *shop.Instance, priority []float64, s *Scratch, off []int) (chosen, bestM int) {
	n := len(in.Jobs)
	bestJob, bestECT := -1, 0
	bestM = -1
	for j := 0; j < n; j++ {
		m := s.candMach[j]
		if m < 0 {
			continue
		}
		est := s.jobReady[j]
		if s.machFree[m] > est {
			est = s.machFree[m]
		}
		ect := est + s.candDur[j]
		if bestJob < 0 || ect < bestECT {
			bestJob, bestECT, bestM = j, ect, m
		}
	}
	chosen = -1
	if bestM < 0 {
		return chosen, bestM // every job exhausted; callers stop before this
	}
	var chosenPri float64
	mf := s.machFree[bestM]
	for j := 0; j < n; j++ {
		if s.candMach[j] != bestM {
			continue // candMach is -1 for exhausted jobs, never equal to bestM
		}
		est := s.jobReady[j]
		if mf > est {
			est = mf
		}
		if est >= bestECT {
			continue
		}
		pri := priority[off[j]+s.nextOp[j]]
		if chosen < 0 || pri > chosenPri {
			chosen, chosenPri = j, pri
		}
	}
	return chosen, bestM
}

// gtDecode runs the Giffler-Thompson active-schedule builder shared by the
// makespan kernel and the Into decoder, appending assignments to out when
// non-nil, and returns the makespan.
func gtDecode(in *shop.Instance, priority []float64, s *Scratch, out *shop.Schedule) int {
	s.jobState(in)
	s.machState(in, false)
	s.gtState(in)
	off := s.offsets(in)
	ms := 0
	for remaining := in.TotalOps(); remaining > 0; remaining-- {
		chosen, m := gtPick(in, priority, s, off)
		k := s.nextOp[chosen]
		start := s.jobReady[chosen]
		if s.machFree[m] > start {
			start = s.machFree[m]
		}
		end := start + s.candDur[chosen]
		if out != nil {
			out.Ops = append(out.Ops, shop.Assignment{Job: chosen, Op: k, Machine: m, Start: start, End: end})
		}
		s.jobReady[chosen] = end
		s.machFree[m] = end
		s.gtAdvance(in, chosen, k)
		if end > ms {
			ms = end
		}
	}
	return ms
}

// GifflerThompsonMakespan is the allocation-free counterpart of
// GifflerThompson(in, priority).Makespan(): the same active-schedule builder
// without the assignment list.
func GifflerThompsonMakespan(in *shop.Instance, priority []float64, s *Scratch) int {
	return gtDecode(in, priority, scratchOrNew(s), nil)
}

// GifflerThompsonInto decodes like GifflerThompson but reuses s's buffers
// and schedule. The returned schedule is valid until s's next use.
func GifflerThompsonInto(in *shop.Instance, priority []float64, s *Scratch) *shop.Schedule {
	s = scratchOrNew(s)
	out := s.schedule(in)
	gtDecode(in, priority, s, out)
	return out
}

// openShopPick runs the open-shop token dispatch of openShopDecode: it
// picks job j's remaining operation under rule and returns its index and
// start, or pick < 0 when j is fully scheduled. done is indexed by
// flattened operation ID through off.
func openShopPick(in *shop.Instance, j int, rule OpenRule, s *Scratch, off []int) (pick, pickStart int) {
	pick = -1
	var pickP, pickLoad int
	for k := range in.Jobs[j].Ops {
		if s.done[off[j]+k] {
			continue
		}
		op := &in.Jobs[j].Ops[k]
		m := op.Machines[0]
		start := s.jobReady[j]
		if s.machFree[m] > start {
			start = s.machFree[m]
		}
		p := op.Times[0]
		better := false
		switch rule {
		case EarliestStart:
			better = pick < 0 || start < pickStart || (start == pickStart && p > pickP)
		case LPTTask:
			better = pick < 0 || p > pickP
		case LPTMachine:
			better = pick < 0 || s.machLoad[m] > pickLoad
		}
		if better {
			pick, pickStart, pickP, pickLoad = k, start, p, s.machLoad[m]
		}
	}
	return pick, pickStart
}

// openShopState resets the open-shop specific state: done flags and the
// remaining per-machine load used by the LPT-Machine rule.
func (s *Scratch) openShopState(in *shop.Instance) []int {
	off := s.offsets(in)
	total := in.TotalOps()
	s.done = growBools(s.done, total)
	for i := 0; i < total; i++ {
		s.done[i] = false
	}
	s.machLoad = growInts(s.machLoad, in.NumMachines)
	for i := range s.machLoad {
		s.machLoad[i] = 0
	}
	for _, job := range in.Jobs {
		for _, op := range job.Ops {
			s.machLoad[op.Machines[0]] += op.Times[0]
		}
	}
	return off
}

// openShopDecode runs the greedy open-shop loop shared by the makespan
// kernel and the Into decoder, appending assignments to out when non-nil,
// and returns the makespan.
func openShopDecode(in *shop.Instance, seq []int, rule OpenRule, s *Scratch, out *shop.Schedule) int {
	s.jobState(in)
	s.machState(in, false)
	off := s.openShopState(in)
	ms := 0
	for _, j := range seq {
		pick, pickStart := openShopPick(in, j, rule, s, off)
		if pick < 0 {
			continue // job already fully scheduled; tolerate excess tokens
		}
		op := &in.Jobs[j].Ops[pick]
		m := op.Machines[0]
		end := pickStart + op.Times[0]
		if out != nil {
			out.Ops = append(out.Ops, shop.Assignment{Job: j, Op: pick, Machine: m, Start: pickStart, End: end})
		}
		s.done[off[j]+pick] = true
		s.jobReady[j] = end
		s.machFree[m] = end
		s.machLoad[m] -= op.Times[0]
		if end > ms {
			ms = end
		}
	}
	return ms
}

// OpenShopMakespan is the allocation-free counterpart of
// OpenShop(in, seq, rule).Makespan().
func OpenShopMakespan(in *shop.Instance, seq []int, rule OpenRule, s *Scratch) int {
	return openShopDecode(in, seq, rule, scratchOrNew(s), nil)
}

// OpenShopInto decodes like OpenShop but reuses s's buffers and schedule.
// The returned schedule is valid until s's next use.
func OpenShopInto(in *shop.Instance, seq []int, rule OpenRule, s *Scratch) *shop.Schedule {
	s = scratchOrNew(s)
	out := s.schedule(in)
	openShopDecode(in, seq, rule, s, out)
	return out
}

// flexStep resolves one sequence token of the flexible decoding: the chosen
// machine, processing time (speed-scaled when requested) and speed index.
func flexStep(in *shop.Instance, assign, speeds []int, op *shop.Operation, id int) (m, p, speed int) {
	mi := 0
	if id < len(assign) {
		mi = assign[id] % len(op.Machines)
		if mi < 0 {
			mi += len(op.Machines)
		}
	}
	m = op.Machines[mi]
	p = op.Times[mi]
	if speeds != nil && id < len(speeds) && len(in.SpeedLevels) > 0 {
		speed = speeds[id] % len(in.SpeedLevels)
		if speed < 0 {
			speed += len(in.SpeedLevels)
		}
		p = shop.ScaledDuration(p, in.SpeedLevels[speed])
	}
	return m, p, speed
}

// flexibleDecode runs the flexible decoding loop shared by the makespan
// kernel and the Into decoder, appending assignments to out when non-nil,
// and returns the makespan.
func flexibleDecode(in *shop.Instance, assign, seq, speeds []int, s *Scratch, out *shop.Schedule) int {
	s.jobState(in)
	s.machState(in, in.Setup != nil)
	off := s.offsets(in)
	ms := 0
	for _, j := range seq {
		k := s.nextOp[j]
		if k >= len(in.Jobs[j].Ops) {
			continue
		}
		op := &in.Jobs[j].Ops[k]
		m, p, speed := flexStep(in, assign, speeds, op, off[j]+k)
		setup := 0
		if in.Setup != nil {
			prev := s.lastJob[m]
			if prev < 0 {
				prev = j
			}
			setup = in.SetupTime(m, prev, j)
			s.lastJob[m] = j
		}
		start := s.jobReady[j]
		if t := s.machFree[m] + setup; t > start {
			start = t
		}
		end := start + p
		if out != nil {
			out.Ops = append(out.Ops, shop.Assignment{
				Job: j, Op: k, Machine: m, Start: start, End: end, Speed: speed,
			})
		}
		s.jobReady[j] = end
		s.machFree[m] = end
		s.nextOp[j] = k + 1
		if end > ms {
			ms = end
		}
	}
	return ms
}

// FlexibleMakespan is the allocation-free counterpart of
// Flexible(in, assign, seq, speeds).Makespan(), honouring machine
// assignments, speed levels and detached sequence-dependent setups.
func FlexibleMakespan(in *shop.Instance, assign, seq, speeds []int, s *Scratch) int {
	return flexibleDecode(in, assign, seq, speeds, scratchOrNew(s), nil)
}

// FlexibleInto decodes like Flexible but reuses s's buffers and schedule.
// The returned schedule is valid until s's next use.
func FlexibleInto(in *shop.Instance, assign, seq, speeds []int, s *Scratch) *shop.Schedule {
	s = scratchOrNew(s)
	out := s.schedule(in)
	flexibleDecode(in, assign, seq, speeds, s, out)
	return out
}
