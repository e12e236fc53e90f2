package campaign_test

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/campaign/scenarios"
)

// quickCampaign is the shipped scenario table at a CI-friendly request
// count.
func quickCampaign(seed uint64) campaign.Config {
	return campaign.Config{Seed: seed, Workers: 4, Requests: 120, Scenarios: scenarios.All()}
}

// TestRunCampaignSameSeedBitIdentical is the acceptance contract: two
// runs with the same seed against the real Domain/Pool/Bridge backends
// produce byte-identical JSON traces.
func TestRunCampaignSameSeedBitIdentical(t *testing.T) {
	t1, err := campaign.Run(quickCampaign(42), campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	t2, err := campaign.Run(quickCampaign(42), campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	j1, err := t1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := t2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different traces on the real backends")
	}
}

// TestCampaignOracles runs the whole differential-oracle table on every
// shipped scenario and gateway scenario against the real backends.
func TestCampaignOracles(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle suite re-runs every scenario seven times")
	}
	cfg := quickCampaign(42)
	cfg.Requests = 80
	results, err := campaign.CheckAll(cfg, campaign.Backends(), scenarios.Gateway())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no oracle results")
	}
	for _, r := range campaign.Failures(results) {
		t.Errorf("%s", r)
	}
}

// TestCampaignDeterminismAcrossGOMAXPROCS is the determinism regression
// test from the campaign issue: the same seed must produce identical
// traces whether the Go runtime schedules on one CPU or eight. Under
// `make race` this also proves the engine is race-clean at both
// settings.
func TestCampaignDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := quickCampaign(1234)
	cfg.Requests = 60

	run := func(procs int) []byte {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		tr, err := campaign.Run(cfg, campaign.Backends())
		if err != nil {
			t.Fatal(err)
		}
		j, err := tr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	at1 := run(1)
	at8 := run(8)
	again1 := run(1)
	if !bytes.Equal(at1, at8) {
		t.Error("GOMAXPROCS=1 and GOMAXPROCS=8 traces differ")
	}
	if !bytes.Equal(at1, again1) {
		t.Error("repeated GOMAXPROCS=1 runs differ")
	}
}

// TestCampaignContainmentSurvivesEveryScenario asserts the supervisor-
// level claim behind the whole campaign: after every shipped scenario —
// hundreds of injected UAFs, overflows, smashes, crashes, runaway
// requests, and malformed payloads — the executors kept serving and the
// attacked scenarios actually recorded detections.
func TestCampaignContainmentSurvivesEveryScenario(t *testing.T) {
	tr, err := campaign.Run(quickCampaign(7), campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Scenarios) != len(scenarios.All()) {
		t.Fatalf("trace has %d scenarios, want %d", len(tr.Scenarios), len(scenarios.All()))
	}
	for _, sc := range scenarios.All() {
		st := tr.Scenario(sc.Name)
		if st == nil {
			t.Errorf("scenario %q missing from trace", sc.Name)
			continue
		}
		if st.OK == 0 {
			t.Errorf("%s: no request survived", sc.Name)
		}
		if sc.Benign() {
			if st.DetectionTotal != 0 || st.Preemptions != 0 || st.Rewinds != 0 {
				t.Errorf("%s: benign scenario recorded det=%d pre=%d rew=%d",
					sc.Name, st.DetectionTotal, st.Preemptions, st.Rewinds)
			}
			continue
		}
		// Attacked scenarios: something must have been injected, and
		// every memory-safety injection must show up as a detection.
		var detected, preempted, injected uint64
		for _, out := range st.Outcomes {
			if out.Fault != "" {
				injected++
			}
			switch out.Outcome {
			case campaign.OutcomeDetected:
				detected++
			case campaign.OutcomePreempted:
				preempted++
			}
		}
		if injected == 0 {
			t.Errorf("%s: schedule injected nothing across %d requests", sc.Name, st.Requests)
		}
		if detected != st.DetectionTotal {
			t.Errorf("%s: outcome stream shows %d detections, executor counted %d",
				sc.Name, detected, st.DetectionTotal)
		}
		if st.Rewinds != detected+preempted {
			t.Errorf("%s: rewinds %d != detections %d + preemptions %d",
				sc.Name, st.Rewinds, detected, preempted)
		}
	}
}

// TestCampaignBatchedOracle is the acceptance check for the batched
// execution layer: driving every shipped scenario through waves of 8
// and 32 must reproduce the serial campaign's per-request outcomes and
// survivor digests exactly (pool-target scenarios exercise real
// coalesced batches; domain and bridge targets fall back to Exec inside
// the wave, which must be equally invisible).
func TestCampaignBatchedOracle(t *testing.T) {
	cfg := quickCampaign(42)
	cfg.Requests = 100
	results, err := campaign.CheckAll(cfg, campaign.Backends(), nil)
	if err != nil {
		t.Fatal(err)
	}
	batched := 0
	for _, r := range results {
		if strings.HasPrefix(r.Oracle, "batched(") {
			batched++
			if !r.Pass {
				t.Errorf("%s", r)
			}
		}
	}
	if batched != 2*len(cfg.Scenarios) {
		t.Fatalf("got %d batched rows, want %d", batched, 2*len(cfg.Scenarios))
	}
}

// TestCampaignBatchedAmortizesCycles pins the point of batching on the
// simulated machine: a benign pool scenario spends measurably fewer
// virtual cycles per request at batch 32 than serially, because the
// Enter/Exit toll is shared.
func TestCampaignBatchedAmortizesCycles(t *testing.T) {
	cfg := campaign.Config{Seed: 7, Workers: 2, Requests: 200,
		Scenarios: []campaign.Scenario{{
			Name:     "kv-pool-benign",
			Workload: campaign.WorkloadKV,
			Target:   campaign.TargetPool,
		}}}
	serial, err := campaign.Run(cfg, campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 32
	batched, err := campaign.Run(cfg, campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	sc, bc := serial.Scenarios[0].VirtualCycles, batched.Scenarios[0].VirtualCycles
	if bc >= sc {
		t.Errorf("batched campaign spent %d cycles vs %d serial — no amortization", bc, sc)
	}
}

// TestCampaignOraclesTakeSerialBase pins that the oracle suite ignores
// cfg.Batch: its base run is always serial, so asking for batch 8
// yields exactly the verdicts of batch 0. A batched base would break
// benign cycle parity on the pool scenario (batched entries are
// amortized; the benign replay is serial).
func TestCampaignOraclesTakeSerialBase(t *testing.T) {
	cfg := campaign.Config{Seed: 5, Requests: 60, Scenarios: []campaign.Scenario{
		{Name: "kv-pool-benign", Workload: campaign.WorkloadKV, Target: campaign.TargetPool},
		{Name: "http-domain-benign", Workload: campaign.WorkloadHTTP, Target: campaign.TargetDomain},
	}}
	serial, err := campaign.CheckAll(cfg, campaign.Backends(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 8
	batched, err := campaign.CheckAll(cfg, campaign.Backends(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, batched) {
		t.Errorf("verdicts depend on cfg.Batch:\nbatch 0: %v\nbatch 8: %v", serial, batched)
	}
	benign := 0
	for _, r := range serial {
		if r.Oracle == "benign" {
			benign++
		}
	}
	if benign != len(cfg.Scenarios) {
		t.Errorf("got %d benign verdicts, want %d", benign, len(cfg.Scenarios))
	}
	for _, r := range campaign.Failures(serial) {
		t.Errorf("%s", r)
	}
}

// TestGatewayCampaignHonoursBatch pins that RunGateway reads
// cfg.Batch. On gw-noisy-neighbor (pool target, no quarantine) every
// tenant's trace is wave-size-independent, while the batched run
// spends fewer virtual cycles because its entries are amortized. The
// quarantine scenarios are deliberately not compared: their breaker
// sees completions one wave late, so their tenant counters
// legitimately depend on the wave size.
func TestGatewayCampaignHonoursBatch(t *testing.T) {
	gscs, err := scenarios.SelectGateway("gw-noisy-neighbor")
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.Config{Seed: 42, Requests: 200, Batch: 1}
	serial, err := campaign.RunGateway(gscs[0], cfg, campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 8
	batched, err := campaign.RunGateway(gscs[0], cfg, campaign.Backends())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Tenants, batched.Tenants) {
		t.Errorf("tenant traces differ between batch 1 and 8:\n%+v\n%+v", serial.Tenants, batched.Tenants)
	}
	t.Logf("virtual cycles: %d at batch 1, %d at batch 8", serial.VirtualCycles, batched.VirtualCycles)
	if batched.VirtualCycles >= serial.VirtualCycles {
		t.Errorf("batch 8 spent %d virtual cycles vs %d at batch 1 — cfg.Batch ignored",
			batched.VirtualCycles, serial.VirtualCycles)
	}
}
