// Package exp is the experiment harness: it regenerates, as printable
// tables, every quantitative claim of the reproduced paper (the
// per-experiment index lives in DESIGN.md §4 and EXPERIMENTS.md).
//
// Each experiment builds fresh simulated systems, drives deterministic
// workloads, and reports virtual-time measurements plus model outputs.
// cmd/sdrad-report renders the results as EXPERIMENTS.md.
package exp

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Result is one experiment's regenerated table.
type Result struct {
	// ID is the experiment identifier (E1..E8, A1..A3).
	ID string
	// Claim is the paper claim the experiment checks.
	Claim string
	// Table is the regenerated data.
	Table *metrics.Table
	// Notes carries per-run commentary (substitutions, caveats).
	Notes string
	// Metrics carries the key measured numbers for programmatic shape
	// verification (see Verify).
	Metrics map[string]float64
}

// metric records a key number on the result (allocating lazily).
func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Runner runs experiments. The zero value runs full-size experiments;
// set Quick for CI-sized runs.
type Runner struct {
	// Quick shrinks request counts for fast runs (same shapes).
	Quick bool
	// Seed is the workload seed (default 1).
	Seed uint64
}

func (r Runner) seed() uint64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

func (r Runner) requests(full int) int {
	if r.Quick {
		return full / 10
	}
	return full
}

// experiment ties an ID to its implementation.
type experiment struct {
	id    string
	claim string
	run   func(Runner) (*Result, error)
}

func registry() []experiment {
	return []experiment{
		{"E1", "SDRaD adds 2–4% runtime overhead (Memcached, NGINX, OpenSSL)", Runner.runE1},
		{"E2", "Recovery: ~2 min restart at 10 GB vs 3.5 µs in-process rewind", Runner.runE2},
		{"E3", "Three 2-min restarts/yr violate five nines; rewind allows >9·10⁷ recoveries", Runner.runE3},
		{"E4", "Malicious clients are contained without disrupting other clients", Runner.runE4},
		{"E5", "Retrofit effort: 484 wrapper LoC manual vs annotation-style SDRaD-FFI", Runner.runE5},
		{"E6", "MPK domain switching is far cheaper than process-based isolation", Runner.runE6},
		{"E7", "Equal availability with ~half the energy/CO₂e of replication", Runner.runE7},
		{"E8", "Cross-domain argument serialization: codec cost trade-offs", Runner.runE8},
		{"A1", "Ablation — discard strategy: page scrub vs fast discard", Runner.runA1},
		{"A2", "Ablation — compartment granularity vs switch overhead", Runner.runA2},
		{"A3", "Ablation — exit-time integrity sweep cost", Runner.runA3},
		{"S1", "Sensitivity — headline verdicts are stable under cost-model error", Runner.runS1},
		{"C1", "Campaign — seeded fault campaigns are contained and pass the differential oracles", Runner.runC1},
	}
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	regs := registry()
	ids := make([]string, len(regs))
	for i, e := range regs {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by ID.
func (r Runner) Run(id string) (*Result, error) {
	for _, e := range registry() {
		if e.id == id {
			res, err := e.run(r)
			if err != nil {
				return nil, fmt.Errorf("exp: %s: %w", id, err)
			}
			res.ID = e.id
			res.Claim = e.claim
			return res, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, known)
}
