package scenarios

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/gateway"
)

// Gateway returns the shipped multi-tenant gateway scenario table:
// noisy-neighbor flooding, attacking and benign tenants interleaved,
// graceful drain mid-run, and a quarantine/probe recovery cycle. Every
// scenario keeps per-tenant MaxInflight at or above the isolation
// oracle's largest batch size (32), so the inflight quota stays
// wave-shape-independent in batched mode (see campaign.RunGateway).
func Gateway() []campaign.GatewayScenario {
	return []campaign.GatewayScenario{
		{
			// A hostile tenant floods six arrivals for every one of the
			// benign tenant's: the flood saturates its own token bucket
			// while the benign tenant's admission decisions never move.
			Name:   "gw-noisy-neighbor",
			Target: campaign.TargetPool,
			Limits: gateway.Limits{Burst: 8, RefillEvery: 2, MaxInflight: 64},
			Tenants: []campaign.TenantSpec{
				{Name: "tame", Workload: campaign.WorkloadKV, Weight: 1},
				{Name: "flood", Workload: campaign.WorkloadHTTP, Weight: 6, Hostile: true},
			},
		},
		{
			// An attacking tenant mixes memory-safety faults into its
			// traffic until the circuit breaker quarantines it; the benign
			// co-tenant's stream is untouched throughout.
			Name:            "gw-attack-tenants",
			Target:          campaign.TargetPool,
			Limits:          gateway.Limits{Burst: 64, RefillEvery: 1, MaxInflight: 64},
			QuarantineAfter: 3,
			Window:          16,
			ProbeEvery:      8,
			Tenants: []campaign.TenantSpec{
				{Name: "steady", Workload: campaign.WorkloadKV, Weight: 2},
				{
					Name: "attacker", Workload: campaign.WorkloadKV, Weight: 2, Hostile: true,
					Faults:      []campaign.FaultClass{campaign.FaultUAF, campaign.FaultHeapOverflow},
					AttackEvery: 2,
				},
			},
		},
		{
			// Drain fires two thirds of the way through a mixed run: every
			// later arrival — benign or hostile — is rejected as drained,
			// at the same composed position in the full and control runs.
			Name:     "gw-drain-mid-run",
			Target:   campaign.TargetPool,
			Limits:   gateway.Limits{Burst: 64, RefillEvery: 1, MaxInflight: 64},
			Requests: 240,
			DrainAt:  160,
			Tenants: []campaign.TenantSpec{
				{Name: "writer", Workload: campaign.WorkloadKV, Weight: 1},
				{Name: "reader", Workload: campaign.WorkloadHTTP, Weight: 1},
				{Name: "churn", Workload: campaign.WorkloadKV, Weight: 2, Hostile: true},
			},
		},
		{
			// Every one of the rogue tenant's requests faults: the breaker
			// trips fast, probes re-admit on cadence, and dirty probes keep
			// the quarantine — a full breaker lifecycle under traffic.
			Name:            "gw-quarantine-probe",
			Target:          campaign.TargetPool,
			Limits:          gateway.Limits{Burst: 64, RefillEvery: 1, MaxInflight: 64},
			QuarantineAfter: 2,
			Window:          8,
			ProbeEvery:      4,
			Tenants: []campaign.TenantSpec{
				{Name: "quiet", Workload: campaign.WorkloadFFI, Weight: 1},
				{
					Name: "rogue", Workload: campaign.WorkloadKV, Weight: 3, Hostile: true,
					Faults:      []campaign.FaultClass{campaign.FaultFreedHeaderSmash, campaign.FaultCrash},
					AttackEvery: 1,
				},
			},
		},
	}
}

// GatewayNames returns the shipped gateway scenario names, in table
// order.
func GatewayNames() []string {
	all := Gateway()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// SelectGateway resolves a comma-separated gateway scenario name list
// ("" or "all" selects the whole table), preserving table order.
func SelectGateway(list string) ([]campaign.GatewayScenario, error) {
	all := Gateway()
	list = strings.TrimSpace(list)
	if list == "" || list == "all" {
		return all, nil
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, s := range all {
			if s.Name == name {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("scenarios: unknown gateway scenario %q (have: %s)", name, strings.Join(GatewayNames(), ", "))
		}
		want[name] = true
	}
	var out []campaign.GatewayScenario
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}
