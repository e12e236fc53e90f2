package campaign

import (
	"bytes"
	"fmt"
)

// This file implements the differential oracles — the regression net the
// campaign engine exists to provide — as one table. Each row re-runs
// what it checks and compares structured outcomes; none of them encodes
// absolute numbers, so they stay valid as the implementation gets
// faster (a perf PR that changes *behavior* trips them, one that only
// changes host-side speed does not). CheckAll runs the serial base
// once and walks the rows in order; the first four diff against that
// base, the last three build their own runs (recovery.go, gateway.go,
// cluster.go).

// OracleResult is one oracle verdict.
type OracleResult struct {
	// Oracle names the check ("same-seed", "batched(8)", "cluster").
	Oracle string
	// Scenario is the scenario checked ("" for whole-trace checks).
	Scenario string
	// Pass reports the verdict.
	Pass bool
	// Detail explains a failure (empty on pass).
	Detail string
}

// String implements fmt.Stringer.
func (r OracleResult) String() string {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	s := fmt.Sprintf("%s oracle %q", verdict, r.Oracle)
	if r.Scenario != "" {
		s += fmt.Sprintf(" scenario %q", r.Scenario)
	}
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// The oracle matrix: every row runs at these worker counts, batch sizes
// and node counts. None of them is a parameter, so the tests, the CLI
// and C1 check one matrix.
var (
	oracleWorkers = []int{1, 4, 8}
	oracleBatches = []int{8, 32}
	oracleNodes   = []int{1, 2, 4}
)

// suite is what every oracle row reads: the serial config, the
// backends, the serial base run the first four rows diff against, and
// the gateway scenarios the isolation row checks.
type suite struct {
	cfg      Config
	factory  ExecutorFactory
	base     *Trace
	gateways []GatewayScenario
}

// oracles is the differential-oracle table, in verdict order. Each
// row's check runs the executions its comment names, diffs them, and
// applies the row's anti-vacuity guard (DESIGN.md §8 adds the fields
// compared). A new oracle is one more row.
var oracles = []struct {
	name  string
	check func(*suite) ([]OracleResult, error)
}{
	// The serial base vs a second run of the same cfg.
	{"same-seed", checkSameSeed},
	// The serial base vs a run at each oracle worker count; guard: a
	// scenario missing from any run fails.
	{"worker-count", checkWorkerCounts},
	// Each benign scenario's base vs a bare replay; guard: the base
	// recorded no detection, rewind or preemption.
	{"benign", checkBenign},
	// The serial base vs a run at each oracle batch size; guard: a
	// scenario missing from any run fails.
	{"batched(8/32)", checkBatched},
	// A durable server killed mid-commit, then recovered, vs its
	// acknowledged prefix; guard: the kill fired after a committed
	// batch and tore the log's tail.
	{"recovery", checkRecovery},
	// Each gateway scenario in full vs without its hostile tenants;
	// guard: a scenario with no hostile tenant is an error.
	{"isolation", checkIsolation},
	// An N-node cluster vs one pool on one schedule; guard: every
	// fault event fired, crash and rolling handed off, a partition
	// nacked, steady state did not.
	{"cluster", checkCluster},
}

// OracleNames lists the oracle table's rows in verdict order.
func OracleNames() []string {
	names := make([]string, len(oracles))
	for i, o := range oracles {
		names[i] = o.name
	}
	return names
}

// CheckAll runs the serial base once and then every oracle row, in
// table order; gateways are the scenarios the isolation row checks
// (none: the row yields no verdicts). cfg.Batch is ignored: the
// oracles always diff a serial base (benign parity replays serially),
// and the rows that batch pick their own sizes.
func CheckAll(cfg Config, factory ExecutorFactory, gateways []GatewayScenario) ([]OracleResult, error) {
	s, err := newSuite(cfg, factory, gateways)
	if err != nil {
		return nil, err
	}
	var all []OracleResult
	for _, o := range oracles {
		res, err := o.check(s)
		if err != nil {
			return all, err
		}
		all = append(all, res...)
	}
	return all, nil
}

// newSuite applies cfg's defaults, forces it serial, and runs the base.
func newSuite(cfg Config, factory ExecutorFactory, gateways []GatewayScenario) (*suite, error) {
	cfg = cfg.withDefaults()
	cfg.Batch = 1
	base, err := Run(cfg, factory)
	if err != nil {
		return nil, err
	}
	return &suite{cfg: cfg, factory: factory, base: base, gateways: gateways}, nil
}

// names lists the base trace's scenarios in trace order.
func (s *suite) names() []string {
	names := make([]string, len(s.base.Scenarios))
	for i, st := range s.base.Scenarios {
		names[i] = st.Scenario
	}
	return names
}

// checkSameSeed runs the campaign again with exactly the base's cfg and
// asserts the two JSON traces are byte-identical — the determinism
// contract every other oracle (and every perf-regression bisect) builds
// on.
func checkSameSeed(s *suite) ([]OracleResult, error) {
	again, err := Run(s.cfg, s.factory)
	if err != nil {
		return nil, err
	}
	j1, err := s.base.JSON()
	if err != nil {
		return nil, err
	}
	j2, err := again.JSON()
	if err != nil {
		return nil, err
	}
	res := OracleResult{Oracle: "same-seed", Pass: bytes.Equal(j1, j2)}
	if !res.Pass {
		res.Detail = fmt.Sprintf("traces differ: %d vs %d bytes", len(j1), len(j2))
		for i := 0; i < len(j1) && i < len(j2); i++ {
			if j1[i] != j2[i] {
				lo, hi := i-30, i+30
				if lo < 0 {
					lo = 0
				}
				if hi > len(j1) {
					hi = len(j1)
				}
				res.Detail = fmt.Sprintf("traces diverge at byte %d: ...%s...", i, j1[lo:hi])
				break
			}
		}
	}
	return []OracleResult{res}, nil
}

// checkWorkerCounts runs the campaign at each oracle worker count and
// asserts, per scenario, the base's per-request outcome stream (fault
// class, outcome, detection mechanism — the dispatched worker is
// allowed to differ) and survivor digest at every count. This is the
// containment claim as a differential: how many isolated workers serve
// the traffic must not change what any single request experiences or
// what state survives.
func checkWorkerCounts(s *suite) ([]OracleResult, error) {
	others := make([]*Trace, len(oracleWorkers))
	for i, w := range oracleWorkers {
		c := s.cfg
		c.Workers = w
		t, err := Run(c, s.factory)
		if err != nil {
			return nil, fmt.Errorf("campaign: worker-count oracle at %d workers: %w", w, err)
		}
		others[i] = t
	}
	return diffTraces("worker-count", s.names(), s.base, others, func(b, o ScenarioTrace, i int) string {
		return diffOutcomes(b, o, s.cfg.Workers, oracleWorkers[i])
	}), nil
}

// diffOutcomes compares the worker-count-invariant fields of two
// scenario traces and describes the first divergence.
func diffOutcomes(a, b ScenarioTrace, wa, wb int) string {
	if len(a.Outcomes) != len(b.Outcomes) {
		return fmt.Sprintf("request counts differ: %d at %d workers vs %d at %d workers",
			len(a.Outcomes), wa, len(b.Outcomes), wb)
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.Fault != y.Fault || x.Outcome != y.Outcome || x.Mech != y.Mech {
			return fmt.Sprintf("request %d: %s/%s/%s at %d workers vs %s/%s/%s at %d workers",
				i, x.Fault, x.Outcome, x.Mech, wa, y.Fault, y.Outcome, y.Mech, wb)
		}
	}
	if a.SurvivorDigest != b.SurvivorDigest {
		return fmt.Sprintf("survivor digests differ: %s at %d workers vs %s at %d workers",
			a.SurvivorDigest, wa, b.SurvivorDigest, wb)
	}
	if a.DetectionTotal != b.DetectionTotal {
		return fmt.Sprintf("detection totals differ: %d at %d workers vs %d at %d workers",
			a.DetectionTotal, wa, b.DetectionTotal, wb)
	}
	return ""
}

// checkBenign asserts, for every benign-only scenario in cfg, that the
// serial base run recorded zero detections and zero rewinds, and that a
// direct replay — the same requests driven through a bare loop with no
// schedule or trace bookkeeping — lands on exactly the same virtual
// cycle count and survivor digest. Cycle parity proves the engine's
// orchestration is free on the simulated machine; a divergence means
// the engine itself perturbs the system under test.
func checkBenign(s *suite) ([]OracleResult, error) {
	var out []OracleResult
	for _, sc := range s.cfg.Scenarios {
		if !sc.Benign() {
			continue
		}
		st := s.base.Scenario(sc.Name)
		res := OracleResult{Oracle: "benign", Scenario: sc.Name, Pass: true}
		switch {
		case st == nil:
			res.Pass, res.Detail = false, "scenario missing from trace"
		case st.DetectionTotal != 0:
			res.Pass, res.Detail = false, fmt.Sprintf("%d detections on benign traffic", st.DetectionTotal)
		case st.Rewinds != 0:
			res.Pass, res.Detail = false, fmt.Sprintf("%d rewinds on benign traffic", st.Rewinds)
		case st.Preemptions != 0:
			res.Pass, res.Detail = false, fmt.Sprintf("%d preemptions on benign traffic", st.Preemptions)
		default:
			cycles, dig, rerr := replayBenign(sc, s.cfg, s.factory)
			if rerr != nil {
				return nil, rerr
			}
			if cycles != st.VirtualCycles {
				res.Pass = false
				res.Detail = fmt.Sprintf("cycle parity broken: campaign %d vs replay %d", st.VirtualCycles, cycles)
			} else if dig != st.SurvivorDigest {
				res.Pass = false
				res.Detail = fmt.Sprintf("survivor divergence: campaign %s vs replay %s", st.SurvivorDigest, dig)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// checkBatched re-runs the campaign at each oracle batch size and
// asserts, per scenario, per-request outcome streams (fault class,
// outcome, detection mechanism) and survivor digests identical to the
// serial base trace. This is the batched==serial contract: coalescing
// calls into shared domain entries must not change what any single
// request experiences or what state survives. Virtual cycles and
// detection totals are NOT compared — batching amortizes entry costs,
// and an aborted batch's serial re-derivation legitimately counts extra
// detections.
func checkBatched(s *suite) ([]OracleResult, error) {
	var out []OracleResult
	for _, k := range oracleBatches {
		cfg := s.cfg
		cfg.Batch = k
		bt, err := Run(cfg, s.factory)
		if err != nil {
			return nil, fmt.Errorf("campaign: batched oracle at batch %d: %w", k, err)
		}
		out = append(out, diffTraces(fmt.Sprintf("batched(%d)", k), s.names(), s.base, []*Trace{bt},
			func(b, o ScenarioTrace, _ int) string { return diffBatched(b, o, k) })...)
	}
	return out, nil
}

// diffTraces renders one verdict per named scenario, comparing its base
// trace against each other run's with diff (given the other run's
// index); the first divergence fails the verdict.
func diffTraces(oracle string, names []string, base *Trace, others []*Trace, diff func(b, o ScenarioTrace, i int) string) []OracleResult {
	out := make([]OracleResult, 0, len(names))
	for _, name := range names {
		res := OracleResult{Oracle: oracle, Scenario: name, Pass: true}
		b := base.Scenario(name)
		if b == nil {
			res.Detail = "missing from base trace"
		}
		for i := 0; i < len(others) && res.Detail == ""; i++ {
			if o := others[i].Scenario(name); o == nil {
				res.Detail = "missing from " + oracle + " trace"
			} else {
				res.Detail = diff(*b, *o, i)
			}
		}
		res.Pass = res.Detail == ""
		out = append(out, res)
	}
	return out
}

// diffBatched compares the batching-invariant fields of a serial and a
// batched scenario trace: outcome streams (including the dispatched
// worker — batching must not perturb placement) and survivor digests.
func diffBatched(serial, batched ScenarioTrace, k int) string {
	if len(serial.Outcomes) != len(batched.Outcomes) {
		return fmt.Sprintf("request counts differ: %d serial vs %d at batch %d",
			len(serial.Outcomes), len(batched.Outcomes), k)
	}
	for i := range serial.Outcomes {
		x, y := serial.Outcomes[i], batched.Outcomes[i]
		if x != y {
			return fmt.Sprintf("request %d: %s/%s/%s@w%d serial vs %s/%s/%s@w%d at batch %d",
				i, x.Fault, x.Outcome, x.Mech, x.W, y.Fault, y.Outcome, y.Mech, y.W, k)
		}
	}
	if serial.SurvivorDigest != batched.SurvivorDigest {
		return fmt.Sprintf("survivor digests differ: %s serial vs %s at batch %d",
			serial.SurvivorDigest, batched.SurvivorDigest, k)
	}
	return ""
}

// Failures filters results to the failed ones.
func Failures(results []OracleResult) []OracleResult {
	var out []OracleResult
	for _, r := range results {
		if !r.Pass {
			out = append(out, r)
		}
	}
	return out
}
