package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gateway"
)

func testGatewayScenario() GatewayScenario {
	return GatewayScenario{
		Name:            "gw-test",
		Target:          TargetDomain,
		Limits:          gateway.Limits{Burst: 64, RefillEvery: 1, MaxInflight: 64},
		QuarantineAfter: 3,
		Window:          16,
		ProbeEvery:      8,
		Tenants: []TenantSpec{
			{Name: "benign", Workload: WorkloadKV, Weight: 2},
			{
				Name: "attacker", Workload: WorkloadKV, Weight: 2, Hostile: true,
				Faults: []FaultClass{FaultUAF, FaultHeapOverflow}, AttackEvery: 2,
			},
		},
	}
}

func TestGatewayScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GatewayScenario)
		want string
	}{
		{"no name", func(s *GatewayScenario) { s.Name = "" }, "needs a name"},
		{"bad target", func(s *GatewayScenario) { s.Target = 0 }, "unknown target"},
		{"no tenants", func(s *GatewayScenario) { s.Tenants = nil }, "no tenants"},
		{"bad tenant name", func(s *GatewayScenario) { s.Tenants[0].Name = "Bad Name" }, "bad tenant name"},
		{"duplicate tenant", func(s *GatewayScenario) { s.Tenants[1].Name = s.Tenants[0].Name }, "duplicate tenant"},
		{"bad workload", func(s *GatewayScenario) { s.Tenants[0].Workload = 0 }, "unknown workload"},
		{"faults without every", func(s *GatewayScenario) { s.Tenants[1].AttackEvery = 0 }, "without AttackEvery"},
		{"all hostile", func(s *GatewayScenario) { s.Tenants[0].Hostile = true }, "every tenant is hostile"},
		{"negative drain", func(s *GatewayScenario) { s.DrainAt = -1 }, "negative DrainAt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := testGatewayScenario()
			tc.mut(&sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := testGatewayScenario().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestGatewaySameSeedBitIdentical(t *testing.T) {
	sc := testGatewayScenario()
	cfg := Config{Seed: 42, Workers: 3, Requests: 120}
	t1, err := RunGateway(sc, cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunGateway(sc, cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := json.MarshalIndent(t1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.MarshalIndent(t2, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different gateway traces")
	}
	cfg.Seed = 43
	t3, err := RunGateway(sc, cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := json.MarshalIndent(t3, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(j1, j3) {
		t.Fatal("different seeds produced identical gateway traces")
	}
}

// TestGatewayThrottleAndQuarantine pins the tiered behaviors on a real
// run: a flooding tenant gets throttled, an attacking tenant gets
// quarantined, and the benign co-tenant sees neither.
func TestGatewayThrottleAndQuarantine(t *testing.T) {
	sc := GatewayScenario{
		Name:            "gw-mixed",
		Target:          TargetDomain,
		Limits:          gateway.Limits{Burst: 4, RefillEvery: 4, MaxInflight: 64},
		QuarantineAfter: 3,
		Window:          16,
		ProbeEvery:      8,
		Tenants: []TenantSpec{
			// The benign tenant's own bucket never binds: one arrival per
			// 4 slots against Burst 4 / RefillEvery 4 at Weight 1 vs 3.
			{Name: "calm", Workload: WorkloadHTTP, Weight: 1,
				Limits: &gateway.Limits{Burst: 64, RefillEvery: 1, MaxInflight: 64}},
			{
				Name: "rowdy", Workload: WorkloadKV, Weight: 3, Hostile: true,
				Faults: []FaultClass{FaultUAF}, AttackEvery: 3,
			},
		},
	}
	tr, err := RunGateway(sc, Config{Seed: 7, Workers: 2, Requests: 300}, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	calm, rowdy := tr.Tenant("calm"), tr.Tenant("rowdy")
	if calm == nil || rowdy == nil {
		t.Fatalf("missing tenant traces: %+v", tr.Tenants)
	}
	if calm.Throttled != 0 || calm.Quarantined != 0 || calm.Detected != 0 {
		t.Errorf("benign tenant saw gateway friction: %+v", *calm)
	}
	if rowdy.Throttled == 0 {
		t.Errorf("flooding tenant never throttled: %+v", *rowdy)
	}
	if rowdy.Quarantines == 0 || rowdy.Quarantined == 0 {
		t.Errorf("attacking tenant never quarantined: %+v", *rowdy)
	}
	// Outcome partition: every arrival is accounted for.
	for _, tt := range tr.Tenants {
		sum := tt.OK + tt.Rejected + tt.Detected + tt.Preempted + tt.Throttled + tt.Quarantined + tt.Drained
		if sum != uint64(tt.Arrivals) {
			t.Errorf("tenant %s: outcomes (%d) do not partition arrivals (%d)", tt.Tenant, sum, tt.Arrivals)
		}
	}
}

// TestGatewayDrain pins the drain cut: every arrival from DrainAt on is
// rejected as drained, for every tenant, and nothing before it is.
func TestGatewayDrain(t *testing.T) {
	sc := testGatewayScenario()
	sc.DrainAt = 60
	tr, err := RunGateway(sc, Config{Seed: 5, Workers: 2, Requests: 120}, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Drained {
		t.Fatal("trace does not report drain")
	}
	for _, out := range tr.Outcomes {
		if out.I >= sc.DrainAt && out.Outcome != OutcomeDrained {
			t.Errorf("arrival %d after drain got %q", out.I, out.Outcome)
		}
		if out.I < sc.DrainAt && out.Outcome == OutcomeDrained {
			t.Errorf("arrival %d before drain got drained", out.I)
		}
	}
}

// TestGatewayIsolationOracle runs the isolation differential on the
// core-backed executor: benign outcomes must be identical with and
// without the hostile tenant, serially and batched.
func TestGatewayIsolationOracle(t *testing.T) {
	sc := testGatewayScenario()
	cfg := Config{Seed: 21, Requests: 160}
	results, err := isolation(sc, cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(oracleWorkers) * (1 + len(oracleBatches)); len(results) != want {
		t.Fatalf("got %d oracle results, want %d: %+v", len(results), want, results)
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("%s", r)
		}
	}
}

// TestGatewayIsolationRejectsHostileFree pins the oracle's vacuity
// guard: a scenario with nothing to remove is an error, not a pass.
func TestGatewayIsolationRejectsHostileFree(t *testing.T) {
	sc := testGatewayScenario()
	sc.Tenants[1].Hostile = false
	_, err := isolation(sc, Config{Seed: 1, Requests: 20}, coreFactory(t))
	if err == nil || !strings.Contains(err.Error(), "no hostile tenant") {
		t.Fatalf("got %v, want hostile-free rejection", err)
	}
}

// TestGatewayDrainIsolation pins the composed-index drain contract: the
// drain point must not move for benign tenants when hostile traffic is
// removed, which is exactly what the isolation oracle checks on a
// drain scenario.
func TestGatewayDrainIsolation(t *testing.T) {
	sc := testGatewayScenario()
	sc.DrainAt = 80
	results, err := isolation(sc, Config{Seed: 9, Requests: 160}, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("%s", r)
		}
	}
}

func TestGatewaySummaryDeterministic(t *testing.T) {
	tr, err := RunGateway(testGatewayScenario(), Config{Seed: 3, Workers: 2, Requests: 60}, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Summary() != tr.Summary() {
		t.Error("summary not deterministic")
	}
	if !strings.Contains(tr.Summary(), "gw-test") || !strings.Contains(tr.Summary(), "attacker") {
		t.Errorf("summary missing scenario or tenant name:\n%s", tr.Summary())
	}
}
