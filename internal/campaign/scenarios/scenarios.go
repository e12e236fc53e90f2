// Package scenarios is the shipped scenario table for the resilience
// campaign engine. A scenario is one struct literal: to add a new
// attack/workload mix, append to All and the engine, cmd/sdrad-campaign,
// the oracles, and the C1 experiment pick it up automatically.
package scenarios

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
)

// All returns the shipped scenario table: every workload crossed with
// every Runner backend, mixing the paper's memory-safety bug classes
// with budget preemptions and malformed payloads, plus one benign
// control per workload for the zero-detection/cycle-parity oracle.
func All() []campaign.Scenario {
	return []campaign.Scenario{
		// KV text protocol.
		{
			Name:     "kv-pool-mixed",
			Workload: campaign.WorkloadKV,
			Target:   campaign.TargetPool,
			Faults: []campaign.FaultClass{
				campaign.FaultUAF, campaign.FaultHeapOverflow,
				campaign.FaultFreedHeaderSmash, campaign.FaultCrash,
			},
			AttackEvery: 7,
		},
		{
			Name:     "kv-domain-heap-attacks",
			Workload: campaign.WorkloadKV,
			Target:   campaign.TargetDomain,
			Faults: []campaign.FaultClass{
				campaign.FaultUAF, campaign.FaultFreedHeaderSmash,
			},
			AttackEvery: 5,
		},
		{
			Name:        "kv-bridge-malformed",
			Workload:    campaign.WorkloadKV,
			Target:      campaign.TargetBridge,
			Faults:      []campaign.FaultClass{campaign.FaultMalformedPayload},
			AttackEvery: 3,
		},
		{
			Name:     "kv-pool-benign",
			Workload: campaign.WorkloadKV,
			Target:   campaign.TargetPool,
		},
		{
			// kv-pool-resize is the campaign smoke's only pool scenario
			// with a budget fault (three preemptions in the committed
			// CAMPAIGN_CI.json). Nothing resizes it; it keeps its name
			// so that trace stays byte-identical.
			Name:     "kv-pool-resize",
			Workload: campaign.WorkloadKV,
			Target:   campaign.TargetPool,
			Faults: []campaign.FaultClass{
				campaign.FaultHeapOverflow, campaign.FaultUAF, campaign.FaultBudget,
			},
			AttackEvery: 6,
		},
		// HTTP head parsing.
		{
			Name:     "http-pool-mixed",
			Workload: campaign.WorkloadHTTP,
			Target:   campaign.TargetPool,
			Faults: []campaign.FaultClass{
				campaign.FaultHeapOverflow, campaign.FaultCrash, campaign.FaultBudget,
			},
			AttackEvery: 6,
		},
		{
			Name:        "http-domain-malformed",
			Workload:    campaign.WorkloadHTTP,
			Target:      campaign.TargetDomain,
			Faults:      []campaign.FaultClass{campaign.FaultMalformedPayload, campaign.FaultUAF},
			AttackEvery: 4,
		},
		{
			Name:     "http-domain-benign",
			Workload: campaign.WorkloadHTTP,
			Target:   campaign.TargetDomain,
		},
		// FFI codec transfer.
		{
			Name:        "ffi-bridge-binary",
			Workload:    campaign.WorkloadFFI,
			Target:      campaign.TargetBridge,
			Faults:      []campaign.FaultClass{campaign.FaultMalformedPayload, campaign.FaultUAF},
			AttackEvery: 5,
			Codec:       "binary",
		},
		{
			Name:        "ffi-bridge-json-malformed",
			Workload:    campaign.WorkloadFFI,
			Target:      campaign.TargetBridge,
			Faults:      []campaign.FaultClass{campaign.FaultMalformedPayload},
			AttackEvery: 3,
			Codec:       "json",
		},
		{
			Name:        "ffi-pool-runaway",
			Workload:    campaign.WorkloadFFI,
			Target:      campaign.TargetPool,
			Faults:      []campaign.FaultClass{campaign.FaultBudget, campaign.FaultCrash},
			AttackEvery: 8,
		},
		{
			Name:     "ffi-domain-benign",
			Workload: campaign.WorkloadFFI,
			Target:   campaign.TargetDomain,
			Codec:    "raw",
		},
	}
}

// Names returns the shipped scenario names, in table order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Select resolves a comma-separated scenario name list ("" or "all"
// selects the whole table), preserving table order.
func Select(list string) ([]campaign.Scenario, error) {
	all := All()
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
			return nil, fmt.Errorf("scenarios: unknown scenario %q (have: %s)", name, strings.Join(Names(), ", "))
		}
		want[name] = true
	}
	var out []campaign.Scenario
	for _, s := range all {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}
