package decode

import (
	"math"

	"repro/internal/shop"
)

// This file holds the batch (struct-of-arrays) evaluation layer: the rung
// of the evaluation ladder above the per-genome Scratch kernels, which also
// build every schedule (kernels.go). The GPU follow-up works to the survey
// (Luo & El Baz, arXiv:1903.10722 and 1903.10741) evaluate whole
// populations per kernel launch over shared precomputed instance tables;
// the CPU analogue below decodes an entire shard of genomes per call over
// flat operation tables, so the instance data is laid out once — densely,
// in int32 — and stays cache-resident across the whole sweep instead of
// being re-derived through Jobs[j].Ops[k].Times[0] pointer chains for
// every operation of every genome.
//
// The regular-dependency kernels (flow shop's completion-row recurrence and
// the job shop's token decode) get true flat-table batch sweeps; the
// decoders whose inner loop is a data-dependent scan (Giffler-Thompson,
// open shop dispatch, flexible assignment) fall back to the scalar kernels
// behind the same batch interface. batch_test.go pins every batch method
// bit-identical to its scalar kernel — which is itself pinned to the
// reference decoders of oracle_test.go — across all shop kinds and batch
// sizes 1..257, and FuzzKernelsMatchOracles holds all three to the oracles.

// batchW is the interleave width of the batch kernels: they decode batchW
// genomes in lockstep, advancing all of them one sequence position at a
// time. A single genome's decode is one long dependency chain (each
// completion feeds the next max), so the scalar kernels are latency-bound;
// interleaving batchW independent chains keeps the out-of-order core's
// execution ports busy while each chain waits on its own previous
// completion. The per-slot state rows are struct-of-arrays — slot t owns
// rows [t*n, (t+1)*n) / [t*m, (t+1)*m) — the same layout a SIMD/GPU
// lockstep sweep would use, per the survey's thread-block-per-individual
// designs. Remainder genomes (batch size not a multiple of batchW) and
// groups with mixed sequence lengths fall back to the scalar kernels:
// bit-identical results, unbatched speed.
const batchW = 4

// BatchScratch is a reusable workspace for batch evaluation of genome
// shards on one instance. It holds instance-derived flat operation tables
// (durations, machine ids, offsets, flattened setups) precomputed once at
// construction, plus per-tile-slot completion/ready state rows. All storage
// is allocated up front: batch calls never allocate, for any batch size.
// A BatchScratch is not safe for concurrent use; parallel executors hold
// one per worker (the core.BatchEvalProblem seam hands each persistent
// worker its own).
type BatchScratch struct {
	in *shop.Instance
	n  int // jobs
	m  int // machines

	// Flat instance tables, indexed by flattened operation id off[j]+k.
	// Durations and machine ids are int32 for cache density (two ops per
	// 8 bytes instead of two 24-byte slice headers per op); wide guards
	// the narrowing.
	off     []int // n+1 flattened op offsets
	dur     []int32
	mach    []int32
	release []int // per-job release dates
	// setup, when the instance has sequence-dependent setups, is the
	// flattened Setup tensor: setup[(m*n+prev)*n+next].
	setup []int32

	// wide is set when any duration or setup does not fit int32; the batch
	// sweeps then fall back to the scalar kernels (identical results,
	// unbatched speed).
	wide bool

	// Per-slot state rows, flat [batchW x n] and [batchW x m]. The
	// completion arithmetic stays int so batch results are bit-identical
	// to the scalar kernels at any magnitude the tables admit.
	jobReady []int
	nextID   []int // absolute flattened-op cursors, nextID[t*n+j] in [off[j], off[j+1]]
	machFree []int
	lastJob  []int // only with setups

	scalar *Scratch
}

// NewBatchScratch builds the flat operation tables for in and pre-sizes
// every state row, so all subsequent batch calls on in are allocation-free.
func NewBatchScratch(in *shop.Instance) *BatchScratch {
	n := len(in.Jobs)
	m := in.NumMachines
	total := in.TotalOps()
	b := &BatchScratch{
		in: in, n: n, m: m,
		off:      make([]int, n+1),
		dur:      make([]int32, total),
		mach:     make([]int32, total),
		release:  make([]int, n),
		jobReady: make([]int, batchW*n),
		nextID:   make([]int, batchW*n),
		machFree: make([]int, batchW*m),
		scalar:   NewScratch(in),
	}
	id := 0
	for j, job := range in.Jobs {
		b.off[j] = id
		b.release[j] = job.Release
		for k := range job.Ops {
			op := &job.Ops[k]
			t := op.Times[0]
			if t > math.MaxInt32 || t < math.MinInt32 {
				b.wide = true
			}
			b.dur[id] = int32(t)
			b.mach[id] = int32(op.Machines[0])
			id++
		}
	}
	b.off[n] = id
	if in.Setup != nil {
		b.setup = make([]int32, m*n*n)
		b.lastJob = make([]int, batchW*m)
		for mm := 0; mm < m; mm++ {
			for prev := 0; prev < n; prev++ {
				row := in.Setup[mm][prev]
				base := (mm*n + prev) * n
				for next, s := range row {
					if s > math.MaxInt32 || s < math.MinInt32 {
						b.wide = true
					}
					b.setup[base+next] = int32(s)
				}
			}
		}
	}
	return b
}

// Scalar exposes the embedded per-genome Scratch, for callers that mix
// batch sweeps with scalar decodes (non-makespan objectives, schedule
// materialisation) without a second workspace.
func (b *BatchScratch) Scalar() *Scratch { return b.scalar }

// quadLen reports whether four sequences share one length, the
// precondition for decoding them in lockstep.
func quadLen(a, b, c, d []int) bool {
	return len(a) == len(b) && len(b) == len(c) && len(c) == len(d)
}

// FlowShopMakespans fills out[i] with the flow-shop makespan of perms[i],
// bit-identical to FlowShopMakespan on each permutation. Groups of batchW
// equal-length permutations run the lockstep sweep; everything else falls
// back to the scalar kernel per genome.
func (b *BatchScratch) FlowShopMakespans(perms [][]int, out []float64) {
	i := 0
	if !b.wide {
		for ; i+batchW <= len(perms); i += batchW {
			q := perms[i : i+batchW]
			if !quadLen(q[0], q[1], q[2], q[3]) {
				break
			}
			b.flowShopQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
		}
	}
	for ; i < len(perms); i++ {
		out[i] = float64(FlowShopMakespan(b.in, perms[i], b.scalar))
	}
}

// flowShopQuad runs the completion-row recurrence for four equal-length
// permutations in lockstep. The four per-stage chains are independent, so
// their max/add latencies overlap; the running previous-completion of each
// slot lives in a register, and the per-stage completion rows are
// interleaved c[s*batchW+t] so one position's sweep touches contiguous
// memory.
func (b *BatchScratch) flowShopQuad(p0, p1, p2, p3 []int, out []float64) {
	m := b.m
	c := b.machFree[:batchW*m]
	for i := range c {
		c[i] = 0
	}
	dur, rel := b.dur, b.release
	for p := 0; p < len(p0); p++ {
		j0, j1, j2, j3 := p0[p], p1[p], p2[p], p3[p]
		// Per-slot duration rows are contiguous (every flow-shop job has one
		// operation per machine, so the op id of (j, s) is j*m+s), and each
		// slot streams its own row while the four completion chains overlap.
		d0 := dur[j0*m : j0*m+m]
		d1 := dur[j1*m : j1*m+m]
		d2 := dur[j2*m : j2*m+m]
		d3 := dur[j3*m : j3*m+m]
		v0, v1, v2, v3 := rel[j0], rel[j1], rel[j2], rel[j3]
		base := 0
		for s := 0; s < m; s++ {
			row := c[base : base+batchW : base+batchW]
			base += batchW
			if t := row[0]; t > v0 {
				v0 = t
			}
			v0 += int(d0[s])
			row[0] = v0
			if t := row[1]; t > v1 {
				v1 = t
			}
			v1 += int(d1[s])
			row[1] = v1
			if t := row[2]; t > v2 {
				v2 = t
			}
			v2 += int(d2[s])
			row[2] = v2
			if t := row[3]; t > v3 {
				v3 = t
			}
			v3 += int(d3[s])
			row[3] = v3
		}
	}
	// Completions rise along a job's stages, so the last stage's row holds
	// each slot's makespan.
	for t, v := range c[(m-1)*batchW:] {
		out[t] = float64(v)
	}
}

// JobShopMakespans fills out[i] with the job-shop makespan of seqs[i],
// bit-identical to JobShopMakespan on each sequence, including detached
// sequence-dependent setups. Groups of batchW equal-length sequences run
// the lockstep sweep; remainder or mixed-length genomes fall back to the
// scalar kernel.
func (b *BatchScratch) JobShopMakespans(seqs [][]int, out []float64) {
	i := 0
	if !b.wide {
		for ; i+batchW <= len(seqs); i += batchW {
			q := seqs[i : i+batchW]
			if !quadLen(q[0], q[1], q[2], q[3]) {
				break
			}
			if b.setup == nil {
				b.jobShopQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
			} else {
				b.jobShopSetupQuad(q[0], q[1], q[2], q[3], out[i:i+batchW])
			}
		}
	}
	for ; i < len(seqs); i++ {
		out[i] = float64(JobShopMakespan(b.in, seqs[i], b.scalar))
	}
}

// quadState resets the four slots' job-ready times, absolute op cursors
// and machine-free rows, returning the per-slot row slices.
func (b *BatchScratch) quadState() (jr, ni, mf [batchW][]int) {
	n, m := b.n, b.m
	for t := 0; t < batchW; t++ {
		jr[t] = b.jobReady[t*n : t*n+n : t*n+n]
		ni[t] = b.nextID[t*n : t*n+n : t*n+n]
		mf[t] = b.machFree[t*m : t*m+m : t*m+m]
		copy(jr[t], b.release)
		copy(ni[t], b.off[:n])
		row := mf[t]
		for i := range row {
			row[i] = 0
		}
	}
	return jr, ni, mf
}

// jobShopQuad runs the semi-active token decode for four equal-length
// sequences in lockstep (no setups). Each slot owns its own state rows;
// the four token decodes per position are independent, overlapping the
// per-genome ready-time chains that bound the scalar kernel.
func (b *BatchScratch) jobShopQuad(s0, s1, s2, s3 []int, out []float64) {
	jr, ni, mf := b.quadState()
	jr0, jr1, jr2, jr3 := jr[0], jr[1], jr[2], jr[3]
	ni0, ni1, ni2, ni3 := ni[0], ni[1], ni[2], ni[3]
	mf0, mf1, mf2, mf3 := mf[0], mf[1], mf[2], mf[3]
	off, mach, dur := b.off, b.mach, b.dur
	var ms0, ms1, ms2, ms3 int
	for p := 0; p < len(s0); p++ {
		if j := s0[p]; ni0[j] != off[j+1] {
			id := ni0[j]
			mi := int(mach[id])
			st := jr0[j]
			if f := mf0[mi]; f > st {
				st = f
			}
			end := st + int(dur[id])
			jr0[j], mf0[mi], ni0[j] = end, end, id+1
			if end > ms0 {
				ms0 = end
			}
		}
		if j := s1[p]; ni1[j] != off[j+1] {
			id := ni1[j]
			mi := int(mach[id])
			st := jr1[j]
			if f := mf1[mi]; f > st {
				st = f
			}
			end := st + int(dur[id])
			jr1[j], mf1[mi], ni1[j] = end, end, id+1
			if end > ms1 {
				ms1 = end
			}
		}
		if j := s2[p]; ni2[j] != off[j+1] {
			id := ni2[j]
			mi := int(mach[id])
			st := jr2[j]
			if f := mf2[mi]; f > st {
				st = f
			}
			end := st + int(dur[id])
			jr2[j], mf2[mi], ni2[j] = end, end, id+1
			if end > ms2 {
				ms2 = end
			}
		}
		if j := s3[p]; ni3[j] != off[j+1] {
			id := ni3[j]
			mi := int(mach[id])
			st := jr3[j]
			if f := mf3[mi]; f > st {
				st = f
			}
			end := st + int(dur[id])
			jr3[j], mf3[mi], ni3[j] = end, end, id+1
			if end > ms3 {
				ms3 = end
			}
		}
	}
	out[0], out[1], out[2], out[3] = float64(ms0), float64(ms1), float64(ms2), float64(ms3)
}

// jobShopSetupQuad is jobShopQuad with detached sequence-dependent setups:
// the setup of a token is read from the flattened tensor keyed by the
// machine's previous job, exactly as jobShopDecode does.
func (b *BatchScratch) jobShopSetupQuad(s0, s1, s2, s3 []int, out []float64) {
	n, m := b.n, b.m
	jr, ni, mf := b.quadState()
	var lj [batchW][]int
	for t := 0; t < batchW; t++ {
		lj[t] = b.lastJob[t*m : t*m+m : t*m+m]
		row := lj[t]
		for i := range row {
			row[i] = -1
		}
	}
	off, mach, dur, setup := b.off, b.mach, b.dur, b.setup
	var ms [batchW]int
	seqs := [batchW][]int{s0, s1, s2, s3}
	for p := 0; p < len(s0); p++ {
		for t := 0; t < batchW; t++ {
			j := seqs[t][p]
			id := ni[t][j]
			if id == off[j+1] {
				continue
			}
			mi := int(mach[id])
			prev := lj[t][mi]
			if prev < 0 {
				prev = j
			}
			lj[t][mi] = j
			st := jr[t][j]
			if f := mf[t][mi] + int(setup[(mi*n+prev)*n+j]); f > st {
				st = f
			}
			end := st + int(dur[id])
			jr[t][j], mf[t][mi], ni[t][j] = end, end, id+1
			if end > ms[t] {
				ms[t] = end
			}
		}
	}
	for t := 0; t < batchW; t++ {
		out[t] = float64(ms[t])
	}
}

// GifflerThompsonMakespans fills out[i] with the active-schedule makespan
// of pris[i]. The Giffler-Thompson conflict scan is data-dependent, so the
// batch interface delegates to the scalar kernel per genome.
func (b *BatchScratch) GifflerThompsonMakespans(pris [][]float64, out []float64) {
	for i, pri := range pris {
		out[i] = float64(GifflerThompsonMakespan(b.in, pri, b.scalar))
	}
}

// OpenShopMakespans fills out[i] with the open-shop makespan of seqs[i]
// under rule, delegating to the scalar kernel per genome (the dispatch
// rule scans remaining operations data-dependently).
func (b *BatchScratch) OpenShopMakespans(seqs [][]int, rule OpenRule, out []float64) {
	for i, seq := range seqs {
		out[i] = float64(OpenShopMakespan(b.in, seq, rule, b.scalar))
	}
}

// FlexibleMakespans fills out[i] with the flexible-shop makespan of the
// i-th (assignment, sequence) pair, delegating to the scalar kernel per
// genome. speeds may be nil (fixed unit speed) or per-genome speed vectors.
func (b *BatchScratch) FlexibleMakespans(assigns, seqs, speeds [][]int, out []float64) {
	for i := range seqs {
		var sp []int
		if speeds != nil {
			sp = speeds[i]
		}
		out[i] = float64(FlexibleMakespan(b.in, assigns[i], seqs[i], sp, b.scalar))
	}
}
