// Package shop models the shop scheduling problem family surveyed by Luo &
// El Baz: flow shop, job shop, open shop, and the flexible variants, with
// the optional modern extensions the survey discusses (sequence-dependent
// setup times, lot streaming, machine speed scaling for energy-aware
// objectives, release dates, due dates and weights).
//
// An instance consists of n jobs, each comprising a sequence of operations;
// every operation carries the set of machines eligible to process it and the
// processing time on each. A Schedule assigns every operation a machine and
// a time interval; Schedule.Validate enforces the feasibility conditions of
// Table I of the paper.
package shop

import (
	"errors"
	"fmt"
)

// Kind identifies the machine environment of an instance.
type Kind int

const (
	// FlowShop: every job visits machines 0..m-1 in identical order.
	FlowShop Kind = iota
	// JobShop: each job has its own fixed machine routing.
	JobShop
	// OpenShop: operations of a job may be processed in any order.
	OpenShop
	// FlexibleFlowShop: flow shop stages, each with parallel machines.
	FlexibleFlowShop
	// FlexibleJobShop: job shop where operations choose among eligible machines.
	FlexibleJobShop
)

// String returns the conventional name of the machine environment.
func (k Kind) String() string {
	switch k {
	case FlowShop:
		return "flow-shop"
	case JobShop:
		return "job-shop"
	case OpenShop:
		return "open-shop"
	case FlexibleFlowShop:
		return "flexible-flow-shop"
	case FlexibleJobShop:
		return "flexible-job-shop"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Ordered reports whether operations of a job must be processed in their
// listed order (true for all environments except the open shop).
func (k Kind) Ordered() bool { return k != OpenShop }

// Flexible reports whether operations may have more than one eligible machine.
func (k Kind) Flexible() bool { return k == FlexibleFlowShop || k == FlexibleJobShop }

// Operation is one processing step of a job. Machines lists the eligible
// machines; Times[i] is the processing time on Machines[i]. Non-flexible
// environments use exactly one eligible machine per operation.
type Operation struct {
	Machines []int `json:"machines"`
	Times    []int `json:"times"`
}

// TimeOn returns the processing time of the operation on machine m and
// whether m is eligible.
func (o Operation) TimeOn(m int) (int, bool) {
	for i, mm := range o.Machines {
		if mm == m {
			return o.Times[i], true
		}
	}
	return 0, false
}

// MinTime returns the smallest processing time over eligible machines.
func (o Operation) MinTime() int {
	min := o.Times[0]
	for _, t := range o.Times[1:] {
		if t < min {
			min = t
		}
	}
	return min
}

// Job is a sequence of operations with its release date, due date and
// tardiness weight. A zero Due means "no due date" for validation purposes
// but objectives treat it literally; generators always set due dates when a
// tardiness objective will be used.
type Job struct {
	Ops     []Operation `json:"ops"`
	Release int         `json:"release"`
	Due     int         `json:"due"`
	Weight  float64     `json:"weight"`
}

// TotalTime returns the sum of minimal processing times over the job's
// operations (a lower bound on the job's flow time).
func (j Job) TotalTime() int {
	sum := 0
	for _, op := range j.Ops {
		sum += op.MinTime()
	}
	return sum
}

// Instance is one shop scheduling problem instance.
type Instance struct {
	Name        string `json:"name"`
	Kind        Kind   `json:"kind"`
	NumMachines int    `json:"num_machines"`
	Jobs        []Job  `json:"jobs"`

	// Setup, when non-nil, holds sequence-dependent setup times:
	// Setup[m][i][j] is the setup on machine m when job j follows job i.
	// Setup[m][j][j] is the initial setup for job j if it is first on m.
	Setup [][][]int `json:"setup,omitempty"`

	// Stages, for flexible flow shops, lists the machine IDs of each stage.
	Stages [][]int `json:"stages,omitempty"`

	// BatchSize, for lot streaming instances, is the number of identical
	// units in each job's batch; operations' Times are per unit.
	BatchSize []int `json:"batch_size,omitempty"`

	// SpeedLevels, for energy-aware instances, lists the selectable machine
	// speed factors (processing time divides by the factor, power grows as
	// factor^PowerExp). Empty means fixed unit speed.
	SpeedLevels []float64 `json:"speed_levels,omitempty"`
	PowerExp    float64   `json:"power_exp,omitempty"`
}

// NumJobs returns the number of jobs.
func (in *Instance) NumJobs() int { return len(in.Jobs) }

// TotalOps returns the total number of operations across all jobs.
func (in *Instance) TotalOps() int {
	n := 0
	for _, j := range in.Jobs {
		n += len(j.Ops)
	}
	return n
}

// OpsPerJob returns the per-job operation counts.
func (in *Instance) OpsPerJob() []int {
	counts := make([]int, len(in.Jobs))
	for i, j := range in.Jobs {
		counts[i] = len(j.Ops)
	}
	return counts
}

// SetupTime returns the sequence-dependent setup time on machine m when job
// next follows job prev (prev == next for an initial setup); it returns 0
// when the instance has no setup data.
func (in *Instance) SetupTime(m, prev, next int) int {
	if in.Setup == nil {
		return 0
	}
	return in.Setup[m][prev][next]
}

// LowerBoundMakespan returns a simple machine-load / job-length lower bound
// on the makespan, used to sanity-check decoded schedules in tests.
func (in *Instance) LowerBoundMakespan() int {
	lb := 0
	for _, j := range in.Jobs {
		if t := j.Release + j.TotalTime(); t > lb {
			lb = t
		}
	}
	// Machine load bound (only exact for non-flexible instances, where each
	// operation's machine is fixed).
	if !in.Kind.Flexible() {
		load := make([]int, in.NumMachines)
		for _, j := range in.Jobs {
			for _, op := range j.Ops {
				load[op.Machines[0]] += op.Times[0]
			}
		}
		for _, l := range load {
			if l > lb {
				lb = l
			}
		}
	}
	return lb
}

// Validate checks structural invariants of the instance definition itself
// (machine indices in range, matching Machines/Times lengths, positive
// processing times, setup tensor shape, and in a flow shop every job
// visiting machines 0..m-1 in order). It does not schedule anything.
func (in *Instance) Validate() error {
	if in.NumMachines <= 0 {
		return errors.New("shop: instance has no machines")
	}
	if len(in.Jobs) == 0 {
		return errors.New("shop: instance has no jobs")
	}
	for ji, j := range in.Jobs {
		if len(j.Ops) == 0 {
			return fmt.Errorf("shop: job %d has no operations", ji)
		}
		if j.Release < 0 {
			return fmt.Errorf("shop: job %d has negative release date", ji)
		}
		if j.Weight < 0 {
			return fmt.Errorf("shop: job %d has negative weight", ji)
		}
		for oi, op := range j.Ops {
			if len(op.Machines) == 0 {
				return fmt.Errorf("shop: job %d op %d has no eligible machines", ji, oi)
			}
			if len(op.Machines) != len(op.Times) {
				return fmt.Errorf("shop: job %d op %d: %d machines but %d times",
					ji, oi, len(op.Machines), len(op.Times))
			}
			if !in.Kind.Flexible() && len(op.Machines) != 1 {
				return fmt.Errorf("shop: job %d op %d: %d eligible machines in non-flexible %v",
					ji, oi, len(op.Machines), in.Kind)
			}
			for k, m := range op.Machines {
				if m < 0 || m >= in.NumMachines {
					return fmt.Errorf("shop: job %d op %d references machine %d (have %d)",
						ji, oi, m, in.NumMachines)
				}
				if op.Times[k] <= 0 {
					return fmt.Errorf("shop: job %d op %d has non-positive time %d",
						ji, oi, op.Times[k])
				}
			}
		}
		if in.Kind == FlowShop {
			if len(j.Ops) != in.NumMachines {
				return fmt.Errorf("shop: flow shop job %d has %d operations, want one per machine (%d)",
					ji, len(j.Ops), in.NumMachines)
			}
			for oi, op := range j.Ops {
				if op.Machines[0] != oi {
					return fmt.Errorf("shop: flow shop job %d op %d runs on machine %d, want %d",
						ji, oi, op.Machines[0], oi)
				}
			}
		}
	}
	if in.Setup != nil {
		if len(in.Setup) != in.NumMachines {
			return fmt.Errorf("shop: setup tensor has %d machines, instance has %d",
				len(in.Setup), in.NumMachines)
		}
		n := len(in.Jobs)
		for m := range in.Setup {
			if len(in.Setup[m]) != n {
				return fmt.Errorf("shop: setup[%d] has %d rows, want %d", m, len(in.Setup[m]), n)
			}
			for i := range in.Setup[m] {
				if len(in.Setup[m][i]) != n {
					return fmt.Errorf("shop: setup[%d][%d] has %d cols, want %d",
						m, i, len(in.Setup[m][i]), n)
				}
				for jj, v := range in.Setup[m][i] {
					if v < 0 {
						return fmt.Errorf("shop: negative setup time at [%d][%d][%d]", m, i, jj)
					}
				}
			}
		}
	}
	if in.BatchSize != nil && len(in.BatchSize) != len(in.Jobs) {
		return fmt.Errorf("shop: batch sizes for %d jobs, instance has %d",
			len(in.BatchSize), len(in.Jobs))
	}
	for _, s := range in.SpeedLevels {
		if s <= 0 {
			return fmt.Errorf("shop: non-positive speed level %v", s)
		}
	}
	return nil
}
