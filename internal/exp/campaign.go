package exp

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/campaign/scenarios"
	"repro/internal/metrics"
)

// runC1 regenerates the containment claim as a campaign: every shipped
// scenario — seeded mixes of benign kvstore/httpd/FFI traffic with
// injected UAFs, overflows, freed-header smashes, crashes, runaway
// requests, and malformed payloads across the Domain, Pool, and Bridge
// backends — runs under the resilience-campaign engine, and the table
// reports what each recorded. The whole differential-oracle table —
// the one `sdrad-campaign -oracles` walks, with every shipped gateway
// scenario in its isolation row — runs as part of the experiment; its
// verdict is a shape check.
func (r Runner) runC1() (*Result, error) {
	cfg := campaign.Config{
		Seed:      r.seed(),
		Workers:   4,
		Requests:  r.requests(1000),
		Scenarios: scenarios.All(),
	}
	trace, err := campaign.Run(cfg, campaign.Backends())
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable(
		fmt.Sprintf("C1 — resilience campaign (seed %d, %d workers, %d requests/scenario)",
			cfg.Seed, cfg.Workers, cfg.Requests),
		"scenario", "target", "workload", "ok", "rejected", "detected", "preempted", "rewinds", "survivor digest")

	res := &Result{Table: table}
	var attackedWithDetections, attacked, benignClean, benign int
	var totalDetections uint64
	for _, sc := range scenarios.All() {
		st := trace.Scenario(sc.Name)
		if st == nil {
			return nil, fmt.Errorf("scenario %q missing from trace", sc.Name)
		}
		table.AddRow(st.Scenario, st.Target, st.Workload,
			st.OK, st.Rejected, st.DetectionTotal, st.Preemptions, st.Rewinds, st.SurvivorDigest)
		totalDetections += st.DetectionTotal
		if sc.Benign() {
			benign++
			if st.DetectionTotal == 0 && st.Rewinds == 0 && st.Preemptions == 0 {
				benignClean++
			}
		} else {
			attacked++
			// A malformed-payload-only scenario's containment event is
			// the parser rejection; the memory-safety classes show up as
			// detections and budget exhaustion as preemptions.
			if st.DetectionTotal > 0 || st.Preemptions > 0 || st.Rejected > 0 {
				attackedWithDetections++
			}
		}
	}

	// The oracles are the experiment's real product: run them at a
	// reduced request count (they re-execute every scenario seven times).
	ocfg := cfg
	ocfg.Requests = r.requests(300)
	results, err := campaign.CheckAll(ocfg, campaign.Backends(), scenarios.Gateway())
	if err != nil {
		return nil, err
	}
	failures := campaign.Failures(results)

	res.metric("scenarios", float64(len(scenarios.All())))
	res.metric("total_detections", float64(totalDetections))
	res.metric("attacked_scenarios", float64(attacked))
	res.metric("attacked_with_events", float64(attackedWithDetections))
	res.metric("benign_scenarios", float64(benign))
	res.metric("benign_clean", float64(benignClean))
	res.metric("oracle_checks", float64(len(results)))
	res.metric("oracle_failures", float64(len(failures)))
	res.Notes = fmt.Sprintf("differential oracles: %d/%d pass (%s)",
		len(results)-len(failures), len(results), strings.Join(campaign.OracleNames(), ", "))
	if len(failures) > 0 {
		res.Notes += fmt.Sprintf("; first failure: %s", failures[0])
	}
	return res, nil
}
