package campaign

import (
	"bytes"
	"fmt"
)

// This file implements the differential oracles — the regression net the
// campaign engine exists to provide. Each oracle re-runs campaigns and
// compares structured outcomes; none of them encodes absolute numbers,
// so they stay valid as the implementation gets faster (a perf PR that
// changes *behavior* trips them, one that only changes host-side speed
// does not). Every oracle but worker-count is one function over a base
// trace — a run already produced with exactly cfg — and CheckAll runs
// that base once, serially, for all of them.

// OracleResult is one oracle verdict.
type OracleResult struct {
	// Oracle names the check ("same-seed", "worker-count", "benign").
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

// CheckSameSeed runs the campaign again with exactly base's cfg and
// asserts the two JSON traces are byte-identical — the determinism
// contract every other oracle (and every perf-regression bisect) builds
// on.
func CheckSameSeed(base *Trace, cfg Config, factory ExecutorFactory) ([]OracleResult, error) {
	again, err := Run(cfg, factory)
	if err != nil {
		return nil, err
	}
	j1, err := base.JSON()
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

// CheckWorkerCounts runs the campaign at each worker count (default
// 1, 4, 8) and asserts, per scenario, identical per-request outcome
// streams (fault class, outcome, detection mechanism — the dispatched
// worker is allowed to differ) and identical survivor digests. This is
// the containment claim as a differential: how many isolated workers
// serve the traffic must not change what any single request experiences
// or what state survives.
func CheckWorkerCounts(cfg Config, factory ExecutorFactory, counts ...int) ([]OracleResult, error) {
	if len(counts) == 0 {
		counts = []int{1, 4, 8}
	}
	traces := make([]*Trace, len(counts))
	for i, w := range counts {
		c := cfg
		c.Workers = w
		t, err := Run(c, factory)
		if err != nil {
			return nil, fmt.Errorf("campaign: worker-count oracle at %d workers: %w", w, err)
		}
		traces[i] = t
	}
	base := traces[0]
	var out []OracleResult
	for _, sc := range base.Scenarios {
		res := OracleResult{Oracle: "worker-count", Scenario: sc.Scenario, Pass: true}
		for i := 1; i < len(traces) && res.Pass; i++ {
			other := traces[i].Scenario(sc.Scenario)
			if other == nil {
				res.Pass = false
				res.Detail = fmt.Sprintf("missing at %d workers", counts[i])
				break
			}
			if d := diffOutcomes(sc, *other, counts[0], counts[i]); d != "" {
				res.Pass = false
				res.Detail = d
			}
		}
		out = append(out, res)
	}
	return out, nil
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

// CheckBenign asserts, for every benign-only scenario in cfg, that the
// serial base run recorded zero detections and zero rewinds, and that a
// direct replay — the same requests driven through a bare loop with no
// schedule or trace bookkeeping — lands on exactly the same virtual
// cycle count and survivor digest. Cycle parity proves the engine's
// orchestration is free on the simulated machine; a divergence means
// the engine itself perturbs the system under test.
func CheckBenign(base *Trace, cfg Config, factory ExecutorFactory) ([]OracleResult, error) {
	var out []OracleResult
	for _, sc := range cfg.Scenarios {
		if !sc.Benign() {
			continue
		}
		st := base.Scenario(sc.Name)
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
			cycles, dig, rerr := replayBenign(sc, cfg, factory)
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

// CheckBatched re-runs the campaign at each batch size (default 8 and
// 32) and asserts, per scenario, per-request outcome streams (fault
// class, outcome, detection mechanism) and survivor digests identical
// to the serial base trace. This is the batched==serial contract:
// coalescing calls into shared domain entries must not change what any
// single request experiences or what state survives. Virtual cycles and
// detection totals are NOT compared — batching amortizes entry costs,
// and an aborted batch's serial re-derivation legitimately counts extra
// detections.
func CheckBatched(base *Trace, cfg Config, factory ExecutorFactory, batchSizes ...int) ([]OracleResult, error) {
	if len(batchSizes) == 0 {
		batchSizes = []int{8, 32}
	}
	names := make([]string, len(base.Scenarios))
	for i, st := range base.Scenarios {
		names[i] = st.Scenario
	}
	var out []OracleResult
	for _, k := range batchSizes {
		cfg.Batch = k
		bt, err := Run(cfg, factory)
		if err != nil {
			return nil, fmt.Errorf("campaign: batched oracle at batch %d: %w", k, err)
		}
		out = append(out, diffTraces(fmt.Sprintf("batched(%d)", k), names, base, bt,
			func(b, o ScenarioTrace) string { return diffBatched(b, o, k) })...)
	}
	return out, nil
}

// diffTraces renders one verdict per named scenario, comparing its base
// trace against the other run's with diff.
func diffTraces(oracle string, names []string, base, other *Trace, diff func(b, o ScenarioTrace) string) []OracleResult {
	out := make([]OracleResult, 0, len(names))
	for _, name := range names {
		res := OracleResult{Oracle: oracle, Scenario: name, Pass: true}
		b, o := base.Scenario(name), other.Scenario(name)
		switch {
		case b == nil:
			res.Pass, res.Detail = false, "missing from base trace"
		case o == nil:
			res.Pass, res.Detail = false, "missing from "+oracle+" trace"
		default:
			if d := diff(*b, *o); d != "" {
				res.Pass, res.Detail = false, d
			}
		}
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

// CheckResize replays the campaign's resizable scenarios under the
// canonical grow/shrink schedule (workers 1→4→8→2 across each
// scenario's quarters) and asserts per-request outcomes, survivor
// digests, and detection totals identical to the fixed-size base trace
// — serially and at each batch size (default 8 and 32). This is the
// resize-invisibility contract (DESIGN.md §13): growing or shrinking a
// live pool must not change what any single request experiences or
// what state survives. Virtual cycles are NOT compared — hot-added
// workers pay a warm-up entry. Scenarios whose executor cannot resize
// are skipped; with none left the result set is empty.
func CheckResize(base *Trace, cfg Config, factory ExecutorFactory, batchSizes ...int) ([]OracleResult, error) {
	cfg = cfg.withDefaults()
	if len(batchSizes) == 0 {
		batchSizes = []int{8, 32}
	}
	// Keep only scenarios whose executor actually supports resizing:
	// probe one executor per distinct target (a factory may serve
	// TargetPool with a fixed-size backend, e.g. the in-package test
	// executor) and skip the rest.
	resizable := make(map[Target]bool)
	sub := cfg
	sub.Scenarios = nil
	var names []string
	for _, sc := range cfg.Scenarios {
		ok, probed := resizable[sc.Target]
		if !probed {
			ex, err := factory(sc.Target, cfg.Workers)
			if err != nil {
				return nil, fmt.Errorf("campaign: resize oracle probing %s executor: %w", sc.Target, err)
			}
			_, ok = ex.(ResizableExecutor)
			if err := ex.Close(); err != nil {
				return nil, fmt.Errorf("campaign: resize oracle closing %s probe: %w", sc.Target, err)
			}
			resizable[sc.Target] = ok
		}
		if ok {
			sub.Scenarios = append(sub.Scenarios, sc)
			names = append(names, sc.Name)
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	var out []OracleResult
	for i, k := range append([]int{1}, batchSizes...) {
		sub.Batch = k
		rt, err := runCampaign(sub, factory, true)
		if err != nil {
			return nil, fmt.Errorf("campaign: resize oracle at batch %d: %w", k, err)
		}
		if i == 0 {
			out = append(out, diffTraces("resize", names, base, rt,
				func(b, o ScenarioTrace) string { return diffOutcomes(b, o, cfg.Workers, -1) })...)
			continue
		}
		out = append(out, diffTraces(fmt.Sprintf("resize-batched(%d)", k), names, base, rt,
			func(b, o ScenarioTrace) string { return diffBatched(b, o, k) })...)
	}
	return out, nil
}

// CheckAll runs the serial base once and then every oracle over it:
// same-seed determinism, worker-count invariance at the given counts
// (default 1/4/8), the benign zero-detection + cycle-parity check, the
// batched==serial check at batch sizes 8 and 32, and the elastic-resize
// invariance check. cfg.Batch is ignored: the oracles always compare
// against a serial base (benign parity replays serially), and the
// batched and resize oracles set their own batch sizes.
func CheckAll(cfg Config, factory ExecutorFactory, counts ...int) ([]OracleResult, error) {
	cfg = cfg.withDefaults()
	cfg.Batch = 1
	base, err := Run(cfg, factory)
	if err != nil {
		return nil, err
	}
	var all []OracleResult
	for _, check := range []func() ([]OracleResult, error){
		func() ([]OracleResult, error) { return CheckSameSeed(base, cfg, factory) },
		func() ([]OracleResult, error) { return CheckWorkerCounts(cfg, factory, counts...) },
		func() ([]OracleResult, error) { return CheckBenign(base, cfg, factory) },
		func() ([]OracleResult, error) { return CheckBatched(base, cfg, factory) },
		func() ([]OracleResult, error) { return CheckResize(base, cfg, factory) },
	} {
		res, err := check()
		if err != nil {
			return all, err
		}
		all = append(all, res...)
	}
	return all, nil
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
