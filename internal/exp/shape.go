package exp

import "fmt"

// This file encodes the paper's expected shapes as machine-checkable
// predicates over Result.Metrics, so "does the reproduction match the
// paper?" is a command (`sdrad-report` prints a verdict per experiment)
// and a test, not a manual reading exercise.

// Check is one shape assertion.
type Check struct {
	// Name describes the assertion.
	Name string
	// Pass reports whether the measured value satisfies it.
	Pass bool
	// Detail shows the measured value and the expected band.
	Detail string
}

// band asserts lo <= got <= hi.
func band(name string, got, lo, hi float64) Check {
	return Check{
		Name:   name,
		Pass:   got >= lo && got <= hi,
		Detail: fmt.Sprintf("measured %.4g, expected [%.4g, %.4g]", got, lo, hi),
	}
}

// atLeast asserts got >= lo.
func atLeast(name string, got, lo float64) Check {
	return Check{
		Name:   name,
		Pass:   got >= lo,
		Detail: fmt.Sprintf("measured %.4g, expected >= %.4g", got, lo),
	}
}

// atMost asserts got <= hi.
func atMost(name string, got, hi float64) Check {
	return Check{
		Name:   name,
		Pass:   got <= hi,
		Detail: fmt.Sprintf("measured %.4g, expected <= %.4g", got, hi),
	}
}

// isTrue asserts a 0/1 metric is 1.
func isTrue(name string, got float64) Check {
	return Check{Name: name, Pass: got == 1, Detail: fmt.Sprintf("got %v, expected true", got == 1)}
}

// isFalse asserts a 0/1 metric is 0.
func isFalse(name string, got float64) Check {
	return Check{Name: name, Pass: got == 0, Detail: fmt.Sprintf("got %v, expected false", got == 0)}
}

// Verify returns the shape checks for a result. Experiments without
// encoded expectations (E5 effort table, ablations) return descriptive
// checks that always hold structurally.
func Verify(r *Result) []Check {
	m := r.Metrics
	switch r.ID {
	case "E1":
		return []Check{
			// Paper band 2–4%; accept [0.5, 8] as a faithful reproduction.
			band("KV overhead in low single digits %", m["kv_overhead_pct"], 0.5, 8),
			band("httpd overhead in low single digits %", m["httpd_overhead_pct"], 0.5, 8),
			band("tls overhead in low single digits %", m["tls_overhead_pct"], 0.5, 8),
			atLeast("process sandbox costs an order of magnitude more %", m["sandbox_overhead_pct"], 20),
		}
	case "E2":
		return []Check{
			band("rewind is µs-scale (paper 3.5µs)", m["rewind_us"], 1, 10),
			band("10 GB restart ≈ 2 min (paper ~120s)", m["restart_10g_s"], 90, 150),
			atLeast("restart/rewind ratio ≥ 10⁶", m["restart_rewind_ratio"], 1e6),
		}
	case "E3":
		return []Check{
			band("five-nines budget ≈ 5.26 min/yr", m["budget_min_per_year"], 5.0, 5.6),
			atLeast("max rewind recoveries > 10⁷ (paper >9·10⁷)", m["max_recoveries_rewind"], 1e7),
			isFalse("3 faults/yr × 2 min restart violates five nines", m["restart_meets_at_3"]),
			isTrue("3 faults/yr × rewind meets five nines", m["rewind_meets_at_3"]),
		}
	case "E4":
		return []Check{
			atMost("SDRaD benign failure rate is zero", m["sdrad_benign_fail_pct"], 0),
			atLeast("native drops benign traffic under attack", m["native_benign_fail_pct"], 1),
			atLeast("SDRaD contains every attack", m["sdrad_contained"], 1),
			atLeast("native crashes under attack", m["native_crashes"], 1),
			atMost("httpd SDRaD benign failure rate is zero", m["httpd_sdrad_benign_fail_pct"], 0),
			atLeast("httpd native drops benign traffic under attack", m["httpd_native_benign_fail_pct"], 1),
		}
	case "E5":
		return []Check{
			atMost("FFI effort below manual effort", m["ffi_effort_kgco2e"], m["manual_effort_kgco2e"]),
			atLeast("retrofit effort ≪ annual replication saving", m["annual_saving_kgco2e"], m["manual_effort_kgco2e"]*10),
		}
	case "E6":
		return []Check{
			atMost("MPK round trip ≤ 100 ns", m["mpk_roundtrip_ns"], 100),
			atLeast("process sandbox ≥ 50× MPK cost", m["process_roundtrip_ns"], m["mpk_roundtrip_ns"]*50),
			atMost("measured enter/exit within 3× of model", m["measured_roundtrip_ns"], m["mpk_roundtrip_ns"]*3),
		}
	case "E7":
		return []Check{
			isTrue("SDRaD meets five nines on one server", m["sdrad_meets_target"]),
			atLeast("CO₂e saving vs 2N ≥ 25%", m["saving_vs_2N_pct"], 25),
		}
	case "E8":
		return []Check{
			atLeast("JSON wire size exceeds raw at 64 KiB", m["json_over_raw_wire_64k"], 1.05),
			atLeast("JSON per-call time exceeds raw at 64 KiB", m["json_over_raw_time_64k"], 1.05),
		}
	case "S1":
		return []Check{
			atMost("rewind verdict never flips across the sweep", m["rewind_flips"], 0),
			atLeast("restart/rewind separation ≥ 10³ everywhere", m["min_ratio"], 1e3),
			atMost("restart crossover limited to the fast-warm-up corner", m["restart_meets_count"], 3),
		}
	case "C1":
		return []Check{
			atMost("no differential oracle fails", m["oracle_failures"], 0),
			atLeast("oracle suite actually ran", m["oracle_checks"], 10),
			isTrue("every attacked scenario recorded containment events", boolMetric(m["attacked_with_events"] == m["attacked_scenarios"])),
			isTrue("every benign scenario stayed clean", boolMetric(m["benign_clean"] == m["benign_scenarios"])),
			atLeast("campaign detected injected faults", m["total_detections"], 1),
		}
	default:
		// Ablations: structural check only (tables were produced).
		return []Check{{
			Name:   "ablation table produced",
			Pass:   r.Table != nil && r.Table.NumRows() > 0,
			Detail: fmt.Sprintf("%d rows", r.Table.NumRows()),
		}}
	}
}
