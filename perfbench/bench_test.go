package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type listed struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestMetricNamesListed pins the benchmark's vocabulary to BENCHMARK.json
// and to the layer map: every metric name is well-formed, every metric the
// program reports is listed with its unit, and nothing is listed that it
// does not report.
func TestMetricNamesListed(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []listed, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
		}
		lm := map[string]string{}
		for _, m := range got {
			lm[m.Name] = m.Unit
		}
		for _, d := range want {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", what, d.name)
			}
			if u, ok := lm[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s listed with unit %q (present %v), reported in %q", what, d.name, u, ok, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || !metricName.MatchString(w.name) {
			t.Errorf("workload %d: listed %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}

	data, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lj struct {
		Layers []struct {
			Metrics []string
			Moves   []struct{ Metric, Workload string }
		}
	}
	if err := json.Unmarshal(data, &lj); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range lj.Layers {
		for _, m := range l.Metrics {
			if unitOf(m) == "" {
				t.Errorf("layers.json maps unknown metric %q", m)
			}
			mapped[m] = true
		}
		for _, mv := range l.Moves {
			if _, err := lookup(mv.Workload); err != nil || unitOf(mv.Metric) == "" {
				t.Errorf("layers.json: %s on %s is not a metric and workload of the benchmark", mv.Metric, mv.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if !mapped[d.name] {
			t.Errorf("per-layer metric %s has no entry in layers.json", d.name)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it; want an error")
	}
	p, err := percentile(append(xs, 99), 0.9)
	if err != nil || p != 89 {
		t.Fatalf("p90 of 0..99 = %v, %v; want 89", p, err)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestCalmJobsPicksByStealOnly(t *testing.T) {
	exposure := []float64{0.30, 0, 0.10, 0, 0.20, 0.05, 0, 0.40}
	jobs := make([]jobRecord, len(exposure))
	for i := range jobs {
		jobs[i] = jobRecord{index: i, ms: float64(100 - i)} // later jobs are faster
	}
	indices := func(js []jobRecord) []int {
		var out []int
		for _, j := range js {
			out = append(out, j.index)
		}
		return out
	}
	// A quarter is two jobs; the third job with no steal ties with them.
	calm, limit := calmJobs(jobs, exposure, 0.25, 1)
	if got := indices(calm); !reflect.DeepEqual(got, []int{1, 3, 6}) || limit != 0 {
		t.Fatalf("calm quarter %v (limit %v), want [1 3 6] at 0", got, limit)
	}
	// The floor wins over the share, taking the next calmest.
	calm, limit = calmJobs(jobs, exposure, 0.25, 5)
	if got := indices(calm); !reflect.DeepEqual(got, []int{1, 2, 3, 5, 6}) || limit != 0.10 {
		t.Fatalf("calm floor %v (limit %v), want [1 2 3 5 6] at 0.1", got, limit)
	}
	if calm, _ := calmJobs(jobs, exposure, 0.25, 100); len(calm) != len(jobs) {
		t.Fatalf("a floor above the job count keeps %d of %d jobs", len(calm), len(jobs))
	}
}

func TestStealShareWeighsOverlap(t *testing.T) {
	t0 := time.Unix(0, 0)
	sec := func(s float64) time.Time { return t0.Add(seconds(s)) }
	s := &stealTrace{samples: []stealSample{
		{at: sec(0), steal: 0, total: 0},
		{at: sec(1), steal: 0, total: 200},  // calm
		{at: sec(2), steal: 50, total: 400}, // a quarter stolen
	}}
	for _, c := range []struct{ a, b, want float64 }{
		{0, 1, 0}, {1, 2, 0.25}, {0.5, 1.5, 0.125}, {0, 2, 0.125}, {1.5, 3, 0.25}, {3, 4, 0},
	} {
		if got := s.share(sec(c.a), sec(c.b)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("share [%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if got := s.overall(); got != 0.125 {
		t.Errorf("overall = %v, want 0.125", got)
	}
}

func TestSelfTimesMergeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2: parallel work
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	if self[1] != 100-30-10 || self[3] != 20-10 || self[2] != 20 {
		t.Fatalf("self times %v", self)
	}
}

// tinySeconds is the timed wall of each tiny run. The traced phase must
// gather a hundred checkpoint appends for jobstore.append_ms_p90, so slow
// builds (the race detector) need more: go test -race . -tiny.seconds=20
var tinySeconds = flag.Float64("tiny.seconds", 3, "timed wall of each tiny workload run")

// tiny shrinks a workload so that one run of each finishes in seconds: 20
// generations per job (one checkpoint per durable job, ten federation
// epochs), and the least pool that still leaves ten jobs beyond p90.
func tiny(w *workload) *workload {
	t := *w
	t.gens = 20
	t.pool = 100
	return &t
}

// TestTinyRunEveryWorkload runs each workload end to end twice and traced
// once: every named metric is reported, no job fails its checks, and a
// seed replays to the same objectives (federated jobs included).
func TestTinyRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := tiny(w)
			o := options{seed: 7, seconds: *tinySeconds, out: t.TempDir(), deadline: time.Now().Add(hardLimit)}
			digests := map[string]bool{}
			for i := 0; i < 2; i++ {
				var log bytes.Buffer
				res, err := measureEndToEnd(w, o, &log)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, res, endToEnd, log.String())
				for _, line := range strings.Split(log.String(), "\n") {
					if strings.HasPrefix(line, "digest ") {
						digests[line] = true
					}
				}
			}
			if len(digests) != 1 {
				t.Errorf("two runs of seed %d disagree: %v", o.seed, digests)
			}

			o.trace = true
			var log bytes.Buffer
			res, err := measureLayers(w, o, &log)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, log.String())
			if !strings.Contains(log.String(), "spans written to ") {
				t.Errorf("no span file reported:\n%s", log.String())
			}
		})
	}
}

func checkResult(t *testing.T, res result, want []metricDef, log string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, log)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or in the wrong unit: %+v", d.name, m)
		}
	}
}

// unitOf returns the unit of a named metric from either list.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
