package exp

import (
	"fmt"

	"repro/internal/avail"
	"repro/internal/metrics"
	"repro/internal/procmodel"
	"repro/internal/vclock"
)

// runS1 — cost-model sensitivity: DESIGN.md §2 argues the paper's
// comparisons are preserved "under any reasonable constant choice". S1
// substantiates (and bounds) that: it sweeps the two most influential
// constants — the state warm-up bandwidth that sets restart time and the
// signal-delivery cost that dominates rewind time — across two orders of
// magnitude each. The rewind verdict (meets five nines at 3 faults/yr)
// and the ≥10³ restart/rewind separation hold everywhere. The restart
// verdict has an honest crossover: when state reloads at NVMe-like
// ≥850 MB/s, three ~12 s restarts per year fit back inside the five-nines
// budget — the paper's violation claim is specific to slow (network/disk
// bound) state repopulation, which S1 makes explicit.
func (r Runner) runS1() (*Result, error) {
	target := avail.NinesTarget(5)
	const tenGB = 10_000_000_000

	t := metrics.NewTable("S1 — cost-model sensitivity of the headline comparison",
		"warm-up B/s", "signal cost (cycles)", "restart(10GB)", "rewind", "ratio", "5-nines (restart/rewind)")

	res := &Result{}
	minRatio := 1e300
	rewindFlips := 0
	restartMeetsCount := 0
	for _, bw := range []uint64{8_500_000, 85_000_000, 850_000_000} {
		for _, sig := range []uint64{600, 6_000, 60_000} {
			cost := vclock.DefaultCostModel()
			cost.WarmupBytesPerSec = bw
			cost.SignalDeliver = sig

			restart := procmodel.ProcessRestart{Cost: cost}.RecoveryTime(tenGB)
			rewind := procmodel.SDRaDRewind{Cost: cost, HeapPages: 8, ZeroOnDiscard: true}.RecoveryTime(tenGB)
			ratio := float64(restart) / float64(rewind)
			if ratio < minRatio {
				minRatio = ratio
			}
			rMeets := avail.Meets(3, restart, target)
			wMeets := avail.Meets(3, rewind, target)
			if !wMeets {
				rewindFlips++
			}
			if rMeets {
				restartMeetsCount++
			}
			t.AddRow(
				fmt.Sprintf("%dM", bw/1_000_000),
				sig,
				metrics.FormatDuration(restart),
				metrics.FormatDuration(rewind),
				fmt.Sprintf("%.2g×", ratio),
				fmt.Sprintf("%v / %v", rMeets, wMeets),
			)
		}
	}
	t.Caption = "sweeping warm-up bandwidth ±10× and signal-delivery cost ±10× around the calibrated defaults"
	res.Table = t
	res.Notes = "rewind meets the target everywhere and stays ≥10³ below restart; restart re-enters the budget only at ≥850 MB/s warm-up (NVMe-local state) — the paper's violation claim presumes slow state repopulation"
	res.metric("min_ratio", minRatio)
	res.metric("rewind_flips", float64(rewindFlips))
	res.metric("restart_meets_count", float64(restartMeetsCount))
	return res, nil
}
