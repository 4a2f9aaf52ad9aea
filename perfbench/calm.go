package main

import (
	"sort"
	"time"
)

// On a shared host the hypervisor takes CPU time from this machine in
// bursts, and a job that runs through one reads slow whatever the program
// does. The untraced run therefore samples the machine's steal counters
// while it measures, and takes its latency and throughput figures from the
// jobs that lost the least CPU time that way: the calmest quarter, ties
// included, and never fewer than job_ms_p90 needs. The choice looks only
// at the host, never at a job's own time, so it does not favour fast jobs
// of the program. Every job still runs its checks and counts in attempted
// and failed.

// stealEvery is the sampling period of the steal counters. At the
// kernel's 100 ticks per second per CPU, a period holds 20 ticks on two
// CPUs.
const stealEvery = 100 * time.Millisecond

// calmShare is the share of a run's jobs its figures come from, and
// calmLeast the fewest jobs they come from: job_ms_p90 needs minTail of
// them beyond it.
const (
	calmShare = 0.25
	calmLeast = 10 * minTail
)

// stealSample is one reading of the machine's CPU time counters.
type stealSample struct {
	at           time.Time
	steal, total uint64
}

// stealTrace samples the steal counters until stopped.
type stealTrace struct {
	samples []stealSample
	stop    chan struct{}
	done    chan struct{}
}

// startStealTrace takes a first sample now and one every period after it.
// Where the kernel does not expose the counters it records nothing, and
// every job reads as calm.
func startStealTrace(every time.Duration) *stealTrace {
	s := &stealTrace{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealTrace) sample() {
	if steal, total, ok := cpuTicks(); ok {
		s.samples = append(s.samples, stealSample{time.Now(), steal, total})
	}
}

// finish takes a last sample and waits for the sampler to end.
func (s *stealTrace) finish() {
	close(s.stop)
	<-s.done
}

// share returns the steal share of CPU time over [a, b): the share of each
// sampling period, weighted by its overlap with the interval.
func (s *stealTrace) share(a, b time.Time) float64 {
	var stolen, weight float64
	for i := 1; i < len(s.samples); i++ {
		p, q := s.samples[i-1], s.samples[i]
		lo, hi := maxTime(a, p.at), minTime(b, q.at)
		if !hi.After(lo) || q.total <= p.total {
			continue
		}
		w := hi.Sub(lo).Seconds()
		stolen += w * float64(q.steal-p.steal) / float64(q.total-p.total)
		weight += w
	}
	return ratio(stolen, weight)
}

// overall returns the steal share over the whole trace.
func (s *stealTrace) overall() float64 {
	if len(s.samples) < 2 {
		return 0
	}
	first, last := s.samples[0], s.samples[len(s.samples)-1]
	return ratio(float64(last.steal-first.steal), float64(last.total-first.total))
}

// calmJobs returns, in sequence order, the share of jobs whose cycles lost
// the least CPU time to the hypervisor, every job that lost no more than
// the last of them, and the next calmest until there are at least least
// (or every job); and the exposure threshold that applied.
func calmJobs(jobs []jobRecord, exposure []float64, share float64, least int) ([]jobRecord, float64) {
	if len(jobs) == 0 {
		return nil, 0
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return exposure[order[a]] < exposure[order[b]] })
	n := max(1, min(len(order), max(least, int(share*float64(len(order))))))
	limit := exposure[order[n-1]]
	for n < len(order) && exposure[order[n]] <= limit {
		n++
	}
	keep := append([]int(nil), order[:n]...)
	sort.Ints(keep)
	out := make([]jobRecord, n)
	for i, k := range keep {
		out[i] = jobs[k]
	}
	return out, limit
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
