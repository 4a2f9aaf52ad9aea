package solver

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/shop"
)

// Sanity bounds enforced by Spec.Validate. They protect the serving path
// (a daemon must not build a gigabyte instance because a request asked for
// a million jobs) while sitting far above every workload in the registry.
const (
	MaxGeneratedJobs     = 1000
	MaxGeneratedMachines = 200
	MaxPopulation        = 1 << 20
	MaxDemes             = 4096 // islands / grids / agents / workers
	MaxGridSide          = 4096 // cellular width and height
)

// FieldError locates one validation failure by its JSON field path
// ("params.crossover_rate") so API clients can attach errors to fields.
type FieldError struct {
	Path string `json:"path"`
	Msg  string `json:"msg"`
}

// Error implements error.
func (e FieldError) Error() string { return e.Path + ": " + e.Msg }

// ValidationError aggregates every field failure of a Spec: callers (CLI
// flag reporting, HTTP 400 bodies, batch tooling) get the complete list in
// one round trip instead of fixing fields one at a time.
type ValidationError struct {
	Fields []FieldError `json:"fields"`
}

// Error implements error, joining all field errors.
func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "solver: invalid spec: " + strings.Join(msgs, "; ")
}

// ClampInstanceSeed maps any int64 instance seed onto the Taillard LCG's
// valid range. This is the single place the range is defined for callers:
// the generator stream (rng.NewTaillard) accepts seeds in [1, 2^31-2], and
// ProblemSpec.Seed is deliberately wider (int64) so specs never fail on a
// seed — 0 maps to the documented default of 1 and every other value is
// folded into range modulo 2^31-2, keeping distinct in-range seeds
// distinct and out-of-range seeds deterministic.
func ClampInstanceSeed(seed int64) int32 {
	const span = 2147483646 // 2^31-2: size of the valid range [1, 2^31-2]
	if seed == 0 {
		return 1
	}
	s := seed % span
	if s <= 0 {
		s += span
	}
	return int32(s)
}

// kindByName resolves the generated-instance kind names of ProblemSpec.
func kindByName(name string) (shop.Kind, bool) {
	switch name {
	case "job", "":
		return shop.JobShop, true
	case "flow":
		return shop.FlowShop, true
	case "open":
		return shop.OpenShop, true
	case "fjs":
		return shop.FlexibleJobShop, true
	case "ffs":
		return shop.FlexibleFlowShop, true
	default:
		return 0, false
	}
}

// specKind resolves the instance kind a ProblemSpec will produce without
// building it: registry benchmarks by name, generated kinds by name. The
// second result is false when the kind cannot be known statically (an
// instance file path, whose kind is read at build time).
func specKind(p ProblemSpec) (shop.Kind, bool) {
	if p.Instance != "" {
		if b, ok := shop.LookupBenchmark(p.Instance); ok {
			return b.Kind, true
		}
		return 0, false
	}
	return kindByName(p.Kind)
}

// Validate checks the Spec statically — names against the registries,
// numbers against ranges, encodings against the (statically known)
// instance kind — and returns a *ValidationError carrying every failure
// at once, or nil. Solve, Service.Submit and therefore Pool and the HTTP
// server all run it, so the CLI, the daemon and the bench layer share one
// validation surface.
func (s Spec) Validate() error {
	var fields []FieldError
	add := func(path, format string, args ...any) {
		fields = append(fields, FieldError{Path: path, Msg: fmt.Sprintf(format, args...)})
	}

	// Problem.
	p := s.Problem
	kind, kindKnown := specKind(p)
	if p.Instance == "" {
		if _, ok := kindByName(p.Kind); !ok {
			add("problem.kind", "unknown problem kind %q (want flow, job, open, fjs or ffs)", p.Kind)
		}
		if p.Jobs < 0 || p.Jobs > MaxGeneratedJobs {
			add("problem.jobs", "jobs %d out of range [0, %d]", p.Jobs, MaxGeneratedJobs)
		}
		if p.Machines < 0 || p.Machines > MaxGeneratedMachines {
			add("problem.machines", "machines %d out of range [0, %d]", p.Machines, MaxGeneratedMachines)
		}
		// Seed needs no check: ClampInstanceSeed folds any int64 into the
		// Taillard range.
	}

	// Model.
	if s.Model == "" {
		add("model", "model is required (registered: %v)", Names())
	} else if _, ok := Lookup(s.Model); !ok {
		add("model", "unknown model %q (registered: %v)", s.Model, Names())
	}

	// Encoding: name, then compatibility with a statically known kind.
	switch s.Encoding {
	case "", EncPerm, EncSeq, EncKeys, EncFlex:
		if s.Encoding != "" && kindKnown {
			if err := checkEncodingKind(s.Encoding, kind); err != nil {
				add("encoding", "%v", err)
			}
		}
	default:
		add("encoding", "unknown encoding %q (want %s, %s, %s or %s)", s.Encoding, EncPerm, EncSeq, EncKeys, EncFlex)
	}

	// Objective.
	if _, err := objectiveByName(s.Objective); err != nil {
		add("objective", "unknown objective %q", s.Objective)
	}

	// Params.
	pr := s.Params
	if pr.Pop < 0 || pr.Pop > MaxPopulation {
		add("params.pop", "pop %d out of range [0, %d]", pr.Pop, MaxPopulation)
	}
	checkDeme := func(path string, v int) {
		if v < 0 || v > MaxDemes {
			add(path, "%d out of range [0, %d]", v, MaxDemes)
		}
	}
	checkDeme("params.workers", pr.Workers)
	checkDeme("params.islands", pr.Islands)
	if pr.Interval < 0 {
		add("params.interval", "interval %d is negative", pr.Interval)
	}
	if pr.Migrants < 0 {
		add("params.migrants", "migrants %d is negative", pr.Migrants)
	}
	if _, err := topologyByName(pr.Topology); err != nil {
		add("params.topology", "unknown topology %q", pr.Topology)
	}
	if pr.Width < 0 || pr.Width > MaxGridSide {
		add("params.width", "width %d out of range [0, %d]", pr.Width, MaxGridSide)
	}
	if pr.Height < 0 || pr.Height > MaxGridSide {
		add("params.height", "height %d out of range [0, %d]", pr.Height, MaxGridSide)
	}
	if _, err := neighborhoodByName(pr.Neighborhood); err != nil {
		add("params.neighborhood", "unknown neighborhood %q", pr.Neighborhood)
	}
	if pr.Elite < 0 {
		add("params.elite", "elite %d is negative", pr.Elite)
	}
	checkRate := func(path string, v float64) {
		if math.IsNaN(v) || v < 0 || v > 1 {
			add(path, "rate %v outside [0, 1]", v)
		}
	}
	checkRate("params.crossover_rate", pr.CrossoverRate)
	checkRate("params.mutation_rate", pr.MutationRate)
	if _, err := openRule(pr.Rule); err != nil {
		add("params.rule", "unknown open shop rule %q", pr.Rule)
	}
	if pr.Scenarios < 0 || pr.Scenarios > 1024 {
		add("params.scenarios", "scenarios %d out of range [0, 1024]", pr.Scenarios)
	}
	if math.IsNaN(pr.Sigma) || math.IsInf(pr.Sigma, 0) || pr.Sigma < 0 {
		add("params.sigma", "sigma %v must be a finite non-negative number", pr.Sigma)
	}
	if pr.Bits < 0 || pr.Bits > 30 {
		add("params.bits", "bits %d out of range [0, 30]", pr.Bits)
	}

	// Federation: Federate requests fan-out (island model only); the
	// shard coordinates must be a consistent triple when present.
	if pr.Federate && s.Model != "" && s.Model != "island" {
		add("params.federate", "federation applies to the island model only, got %q", s.Model)
	}
	if pr.FedNodes < 0 || pr.FedNodes > MaxDemes {
		add("params.fed_nodes", "fed_nodes %d out of range [0, %d]", pr.FedNodes, MaxDemes)
	}
	if pr.FedRank < 0 || (pr.FedNodes > 0 && pr.FedRank >= pr.FedNodes) {
		add("params.fed_rank", "fed_rank %d outside [0, %d)", pr.FedRank, pr.FedNodes)
	}
	if pr.FedKey != "" {
		if pr.FedNodes <= 0 {
			add("params.fed_key", "fed_key set without fed_nodes")
		}
		if len(pr.FedKey) > 200 {
			add("params.fed_key", "fed_key longer than 200 bytes")
		}
	} else if pr.FedNodes > 0 {
		add("params.fed_nodes", "fed_nodes set without fed_key")
	}
	if pr.FedCheckpoint && pr.FedKey == "" {
		add("params.fed_checkpoint", "fed_checkpoint set without fed_key")
	}
	if pr.Federate && pr.FedKey != "" {
		add("params.federate", "federate and shard coordinates are mutually exclusive")
	}
	if pr.FedEpochTimeoutMS < 0 || pr.FedEpochTimeoutMS > 3_600_000 {
		add("params.fed_epoch_timeout_ms", "fed_epoch_timeout_ms %d out of range [0, 3600000]", pr.FedEpochTimeoutMS)
	}

	// Budget.
	b := s.Budget
	if b.Generations < 0 {
		add("budget.generations", "generations %d is negative", b.Generations)
	}
	if b.Evaluations < 0 {
		add("budget.evaluations", "evaluations %d is negative", b.Evaluations)
	}
	if b.Stagnation < 0 {
		add("budget.stagnation", "stagnation %d is negative", b.Stagnation)
	}
	if b.WallMillis < 0 {
		add("budget.wall_ms", "wall_ms %d is negative", b.WallMillis)
	}
	if math.IsNaN(b.Target) || math.IsInf(b.Target, 0) {
		add("budget.target", "target %v must be finite", b.Target)
	}
	if s.StallGenerations < 0 {
		add("stall_generations", "stall_generations %d is negative", s.StallGenerations)
	}

	// Model-specific constraints that are statically checkable.
	if s.Model == "qga" {
		if kindKnown && kind != shop.JobShop {
			add("model", "qga requires a (non-flexible) job shop instance, got %s", kind)
		}
		if s.Encoding != "" {
			add("encoding", "qga uses its own Q-bit encoding; leave encoding empty")
		}
		if o := s.Objective; o != "" && o != "makespan" {
			add("objective", "qga optimises the expected makespan only, got %q", o)
		}
	}

	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}

// checkEncodingKind is the kind-compatibility rule shared by Validate
// (static, pre-build) and resolveEncoding (on the built instance).
func checkEncodingKind(name string, kind shop.Kind) error {
	switch name {
	case EncPerm:
		if kind != shop.FlowShop {
			return fmt.Errorf("encoding %q requires a flow shop, got %s", name, kind)
		}
	case EncSeq:
		if kind == shop.FlowShop {
			return fmt.Errorf("flow shops use the %q encoding, not %q", EncPerm, name)
		}
	case EncKeys:
		if !kind.Ordered() || kind.Flexible() {
			return fmt.Errorf("encoding %q requires an ordered non-flexible shop, got %s", name, kind)
		}
	case EncFlex:
		if !kind.Flexible() {
			return fmt.Errorf("encoding %q requires a flexible shop, got %s", name, kind)
		}
	}
	return nil
}
