// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload closed-loop for a fixed time and prints its metrics, checking
// every job's result on the way:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics from an uninstrumented
// run. With --trace 1 it alternates untraced stacks with stacks whose layer
// seams are wrapped, replays the workload's engine shape, reports the
// per-layer metrics and writes the spans under --out. The last line of
// standard output is the result as one JSON object. perfbench/run.sh
// builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hardLimit is the latest point after its start at which a run still
// starts new jobs, so it ends well inside three minutes even on a slow
// host.
const hardLimit = 140 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for temporary stores and span files
	// deadline is when the run stops starting jobs.
	deadline time.Time
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	deadline := time.Now().Add(hardLimit)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "workload seed; job seeds derive from it")
	seconds := fs.Float64("seconds", 10, "timed wall per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build/perfbench", "directory for temporary stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, deadline: deadline}
	hb, _ := json.Marshal(hostRecord())
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d callers %d\n", w.name, o.seed, o.seconds, *trace, w.callers)

	measure := measureEndToEnd
	if o.trace {
		measure = measureLayers
	}
	res, err := measure(w, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// hostRecord describes the machine and build the figures come from.
func hostRecord() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; a plain source tree reads "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// cpuTicks reads the machine's CPU time counters: ticks stolen by the
// hypervisor and all ticks. ok is false where the kernel does not expose
// them.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
