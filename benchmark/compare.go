package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// allocSlack is how far an allocs-per-request count may drift between
// two runs of one commit: the runtime's own background allocations land
// in the same counter.
const allocSlack = 0.05

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worsening returns by what share of a the value b is worse, negative
// when it is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// exactKind classifies the metrics that do not depend on the host:
// virtual time must repeat exactly for one seed, allocation counts
// within allocSlack.
func exactKind(name string) (virtual, allocs bool) {
	// cluster.virtual_ns_per_req comes off the wire, over however many
	// requests the window happened to hold; it is not a replay's count.
	virtual = strings.Contains(name, "virtual_ns") && name != "cluster.virtual_ns_per_req"
	allocs = strings.HasSuffix(name, "allocs") || name == "allocs_per_req"
	return virtual, allocs
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the change and the bound from BENCHMARK.json, then the exact per-layer
// metrics that differ; it fails when b is outside a bound or an exact
// metric moved. Exact checks need equal seeds, since the seed picks the
// request stream.
func compareFiles(pathA, pathB string) error {
	var a, b report
	var bench benchmarkFile
	if err := errors.Join(readJSON(pathA, &a), readJSON(pathB, &b), readJSON("BENCHMARK.json", &bench)); err != nil {
		return err
	}
	sameSeed := a.Meta["seed"] == b.Meta["seed"]
	fmt.Printf("a: %s (commit %s, seed %s)\nb: %s (commit %s, seed %s)\n\n",
		pathA, a.Meta["commit"], a.Meta["seed"], pathB, b.Meta["commit"], b.Meta["seed"])
	bad := 0
	for _, sp := range specs {
		ra, rb := a.Workloads[sp.name], b.Workloads[sp.name]
		if ra == nil || rb == nil || ra["end_to_end"] == nil || rb["end_to_end"] == nil {
			fmt.Printf("%s: missing from one of the files\n", sp.name)
			bad++
			continue
		}
		fmt.Printf("%s\n", sp.name)
		for _, side := range []*result{ra["end_to_end"], rb["end_to_end"]} {
			if side.Failed > 0 {
				fmt.Printf("  failed_share %d of %d  FAILED REPLIES\n", side.Failed, side.Attempted)
				bad++
			}
		}
		for _, def := range bench.EndToEnd {
			va, vb := ra["end_to_end"].Metrics[def.Name].Value, rb["end_to_end"].Metrics[def.Name].Value
			worse := worsening(va, vb, def.Better)
			verdict := "ok"
			virtual, allocs := exactKind(def.Name)
			switch {
			case virtual && sameSeed && va != vb:
				verdict = "EXACT METRIC DIFFERS"
			case allocs && sameSeed && math.Abs(vb-va) > allocSlack:
				verdict = "EXACT METRIC DIFFERS"
			case worse > def.Bound:
				verdict = "OUTSIDE BOUND"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("  %-24s %14.4f %14.4f  %+7.2f%% worse (bound %.0f%%)  %s\n",
				def.Name, va, vb, worse*100, def.Bound*100, verdict)
		}
		if la, lb := ra["per_layer"], rb["per_layer"]; la != nil && lb != nil && sameSeed {
			for _, def := range perLayer {
				va, vb := la.Metrics[def.name].Value, lb.Metrics[def.name].Value
				virtual, allocs := exactKind(def.name)
				if (virtual && va != vb) || (allocs && math.Abs(vb-va) > allocSlack) {
					fmt.Printf("  %-24s %14.4f %14.4f  EXACT METRIC DIFFERS\n", def.name, va, vb)
					bad++
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons failed", bad)
	}
	fmt.Println("\nevery metric within its bound; exact metrics identical")
	return nil
}
