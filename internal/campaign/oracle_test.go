package campaign

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestOraclesPassOnCoreExecutor(t *testing.T) {
	cfg := Config{Seed: 21, Requests: 80, Scenarios: testScenarios()}
	results, err := CheckAll(cfg, coreFactory(t), 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no oracle results")
	}
	for _, r := range Failures(results) {
		t.Errorf("%s", r)
	}
	// Shape: one same-seed check, one worker-count check per scenario,
	// one benign check per benign scenario.
	var sameSeed, workerCount, benign int
	for _, r := range results {
		switch r.Oracle {
		case "same-seed":
			sameSeed++
		case "worker-count":
			workerCount++
		case "benign":
			benign++
		}
	}
	if sameSeed != 1 || workerCount != len(cfg.Scenarios) || benign != 3 {
		t.Errorf("oracle shape: same-seed=%d worker-count=%d benign=%d", sameSeed, workerCount, benign)
	}
}

// lyingExecutor wraps coreExecutor but reports detections that never
// happened — a stand-in for a containment bug that fires detectors on
// clean traffic. The benign oracle must catch it.
type lyingExecutor struct {
	*coreExecutor
	extraDetections uint64
}

func (e *lyingExecutor) Detections() map[string]uint64 {
	out := e.coreExecutor.Detections()
	out["segfault"] += e.extraDetections
	return out
}

func TestBenignOracleCatchesPhantomDetections(t *testing.T) {
	factory := func(target Target, workers int) (Executor, error) {
		ex, err := newCoreExecutor(workers)
		if err != nil {
			return nil, err
		}
		return &lyingExecutor{coreExecutor: ex, extraDetections: 2}, nil
	}
	cfg := Config{Seed: 5, Requests: 40, Scenarios: []Scenario{
		{Name: "kv-benign", Workload: WorkloadKV, Target: TargetDomain},
	}}
	base, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	results, err := CheckBenign(base, cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	fails := Failures(results)
	if len(fails) != 1 || !strings.Contains(fails[0].Detail, "detections on benign traffic") {
		t.Errorf("benign oracle missed phantom detections: %v", results)
	}
}

// driftExecutor makes behavior depend on the worker count: with more
// than one worker it silently swallows violations on odd workers,
// modelling a containment bug that only shows under sharding. The
// worker-count oracle must catch the divergence.
type driftExecutor struct {
	*coreExecutor
	workers int
}

func (e *driftExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	err := e.coreExecutor.Exec(worker, budget, fn)
	if e.workers > 1 && worker%2 == 1 {
		if _, ok := core.IsViolation(err); ok {
			return nil
		}
	}
	return err
}

func TestWorkerCountOracleCatchesDrift(t *testing.T) {
	factory := func(target Target, workers int) (Executor, error) {
		ex, err := newCoreExecutor(workers)
		if err != nil {
			return nil, err
		}
		return &driftExecutor{coreExecutor: ex, workers: workers}, nil
	}
	cfg := Config{Seed: 9, Requests: 120, Scenarios: []Scenario{
		{Name: "kv-attack", Workload: WorkloadKV, Target: TargetDomain,
			Faults: []FaultClass{FaultUAF}, AttackEvery: 4},
	}}
	results, err := CheckWorkerCounts(cfg, factory, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(Failures(results)) == 0 {
		t.Error("worker-count oracle missed behavior drift")
	}
}

func TestSameSeedOracleCatchesNondeterminism(t *testing.T) {
	// A factory whose executor behavior depends on call order across
	// runs: the first constructed executor swallows nothing, the second
	// swallows violations — so run 1 and run 2 of the same seed differ.
	calls := 0
	factory := func(target Target, workers int) (Executor, error) {
		ex, err := newCoreExecutor(workers)
		if err != nil {
			return nil, err
		}
		calls++
		if calls > 1 {
			return &driftExecutor{coreExecutor: ex, workers: 2}, nil
		}
		return ex, nil
	}
	cfg := Config{Seed: 13, Requests: 80, Workers: 4, Scenarios: []Scenario{
		{Name: "kv-attack", Workload: WorkloadKV, Target: TargetDomain,
			Faults: []FaultClass{FaultCrash}, AttackEvery: 3},
	}}
	base, err := Run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	results, err := CheckSameSeed(base, cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	if len(Failures(results)) != 1 {
		t.Errorf("same-seed oracle missed nondeterminism: %v", results)
	}
}

func TestReplayRejectsNonBenign(t *testing.T) {
	sc := Scenario{Name: "x", Workload: WorkloadKV, Target: TargetDomain,
		Faults: []FaultClass{FaultUAF}, AttackEvery: 2}
	if _, _, err := replayBenign(sc, Config{Seed: 1, Requests: 10}, coreFactory(t)); err == nil {
		t.Error("replayBenign accepted a non-benign scenario")
	}
}
