package decode

import "repro/internal/shop"

// OpenRule selects which of a job's remaining operations a sequence token
// schedules in the open shop, where the technological order is free.
type OpenRule int

const (
	// EarliestStart picks the remaining operation that can start soonest,
	// breaking ties toward the longest processing time.
	EarliestStart OpenRule = iota
	// LPTTask picks the remaining operation of the job with the longest
	// processing time (Kokosiński & Studzienny's LPT-Task heuristic).
	LPTTask
	// LPTMachine picks the remaining operation whose machine has the
	// largest remaining unscheduled load (their LPT-Machine heuristic).
	LPTMachine
)

// String names the rule for experiment tables.
func (r OpenRule) String() string {
	switch r {
	case EarliestStart:
		return "earliest-start"
	case LPTTask:
		return "LPT-task"
	case LPTMachine:
		return "LPT-machine"
	default:
		return "OpenRule(?)"
	}
}

// OpenShop decodes a permutation with repetition of job indices: each token
// schedules one not-yet-processed operation of that job, chosen by rule, at
// the earliest time both the job and the machine are free. It is
// OpenShopInto on a fresh Scratch, so the caller owns the schedule.
func OpenShop(in *shop.Instance, seq []int, rule OpenRule) *shop.Schedule {
	return OpenShopInto(in, seq, rule, nil)
}
