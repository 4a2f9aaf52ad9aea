package decode

import "repro/internal/shop"

// Flexible decodes a flexible job/flow shop genome: assign[opID] chooses the
// eligible-machine index for each flattened operation (values are wrapped
// into range so crossover never produces an illegal assignment), seq is the
// operation sequence over job indices, and speeds, when non-nil, chooses a
// speed level per operation for energy-aware instances. Sequence-dependent
// setup times are honoured as detached setups. It is FlexibleInto on a
// fresh Scratch, so the caller owns the schedule.
func Flexible(in *shop.Instance, assign, seq []int, speeds []int) *shop.Schedule {
	return FlexibleInto(in, assign, seq, speeds, nil)
}

// ExpandSublots rewrites a lot-streaming instance (BatchSize set, operation
// times per unit) into a regular instance in which every sublot is an
// independent job with times scaled by its size, following Defersha & Chen
// [35]: sublots of one job may overlap across stages, which is exactly the
// benefit lot streaming buys. sizes[j] lists the positive unit counts of
// job j's sublots and must sum to BatchSize[j]. Consecutive sublots of the
// same original job incur no setup. The returned origin slice maps each
// expanded job back to its original job.
func ExpandSublots(in *shop.Instance, sizes [][]int) (*shop.Instance, []int) {
	if in.BatchSize == nil {
		panic("decode: ExpandSublots on an instance without batch sizes")
	}
	if len(sizes) != len(in.Jobs) {
		panic("decode: sizes must list sublots for every job")
	}
	out := &shop.Instance{
		Name:        in.Name + "-sublots",
		Kind:        in.Kind,
		NumMachines: in.NumMachines,
		Stages:      in.Stages,
		SpeedLevels: in.SpeedLevels,
		PowerExp:    in.PowerExp,
	}
	var origin []int
	for j, job := range in.Jobs {
		total := 0
		for _, sz := range sizes[j] {
			if sz <= 0 {
				panic("decode: sublot sizes must be positive")
			}
			total += sz
			ops := make([]shop.Operation, len(job.Ops))
			for k, op := range job.Ops {
				times := make([]int, len(op.Times))
				for i, t := range op.Times {
					times[i] = t * sz
				}
				ops[k] = shop.Operation{
					Machines: append([]int(nil), op.Machines...),
					Times:    times,
				}
			}
			out.Jobs = append(out.Jobs, shop.Job{
				Ops:     ops,
				Release: job.Release,
				Due:     job.Due,
				Weight:  job.Weight * float64(sz) / float64(in.BatchSize[j]),
			})
			origin = append(origin, j)
		}
		if total != in.BatchSize[j] {
			panic("decode: sublot sizes must sum to the batch size")
		}
	}
	if in.Setup != nil {
		n := len(out.Jobs)
		out.Setup = make([][][]int, in.NumMachines)
		for m := range out.Setup {
			out.Setup[m] = make([][]int, n)
			for a := 0; a < n; a++ {
				out.Setup[m][a] = make([]int, n)
				for b := 0; b < n; b++ {
					if origin[a] == origin[b] {
						continue // consecutive sublots of one job: no setup
					}
					out.Setup[m][a][b] = in.Setup[m][origin[a]][origin[b]]
				}
			}
		}
	}
	return out, origin
}

// SublotSizes splits batch units into count positive integer sublot sizes
// proportional to keys (random-keys genome segment), guaranteeing every
// sublot at least one unit via a largest-remainder rounding. count must not
// exceed batch.
func SublotSizes(batch, count int, keys []float64) []int {
	if count <= 0 || count > batch {
		panic("decode: sublot count must be in [1, batch]")
	}
	if len(keys) < count {
		panic("decode: need one key per sublot")
	}
	sizes := make([]int, count)
	spare := batch - count // one unit is pre-assigned to each sublot
	var sum float64
	for i := 0; i < count; i++ {
		k := keys[i]
		if k < 0 {
			k = -k
		}
		sum += k + 1e-9
	}
	// Integer shares by floor, then distribute the remainder to the largest
	// fractional parts, deterministically (ties toward lower index).
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, count)
	assigned := 0
	for i := 0; i < count; i++ {
		k := keys[i]
		if k < 0 {
			k = -k
		}
		share := (k + 1e-9) / sum * float64(spare)
		whole := int(share)
		sizes[i] = 1 + whole
		assigned += whole
		fracs[i] = frac{i: i, f: share - float64(whole)}
	}
	for rest := spare - assigned; rest > 0; rest-- {
		best := 0
		for i := 1; i < count; i++ {
			if fracs[i].f > fracs[best].f {
				best = i
			}
		}
		sizes[fracs[best].i]++
		fracs[best].f = -1
	}
	return sizes
}
