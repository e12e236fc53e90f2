package energy

import (
	"testing"

	"repro/internal/procmodel"
)

func TestDevEffortDefaults(t *testing.T) {
	manual := DefaultDevEffortFor("manual-sdrad")
	ffi := DefaultDevEffortFor("sdrad-ffi")
	ops := DefaultDevEffortFor("replication-ops")
	other := DefaultDevEffortFor("something-else")
	if !(ffi.EngineerHours < manual.EngineerHours && manual.EngineerHours < ops.EngineerHours) {
		t.Errorf("effort ordering: ffi=%v manual=%v ops=%v",
			ffi.EngineerHours, manual.EngineerHours, ops.EngineerHours)
	}
	if other.EngineerHours <= 0 {
		t.Error("default effort should be positive")
	}
}

func TestDevEffortEnergyArithmetic(t *testing.T) {
	d := DevEffort{EngineerHours: 10, WorkstationWatts: 200, GridGCO2ePerKWh: 500}
	if got := d.KWh(); got != 2 {
		t.Errorf("KWh = %v, want 2", got)
	}
	if got := d.KgCO2e(); got != 1 {
		t.Errorf("KgCO2e = %v, want 1", got)
	}
	// Zero fields get defaults.
	z := DevEffort{EngineerHours: 1}
	if z.KWh() <= 0 || z.KgCO2e() <= 0 {
		t.Error("defaults not applied")
	}
}

func TestDevEffortIsNegligibleVsReplication(t *testing.T) {
	// The paper's life-cycle argument: even the *manual* retrofit effort
	// (≈50 engineer-hours) is tiny compared to one year of running a
	// redundant server.
	sc := DefaultScenario()
	ap := Assess(sc, procmodel.ActivePassive{})
	rewind := Assess(sc, procmodel.SDRaDRewind{ZeroOnDiscard: true})
	annualSaving := ap.TotalKgCO2e() - rewind.TotalKgCO2e()
	effort := DefaultDevEffortFor("manual-sdrad").KgCO2e()
	if effort*100 > annualSaving {
		t.Errorf("retrofit effort %v kgCO2e should be <1%% of annual saving %v", effort, annualSaving)
	}
}

func TestRebound(t *testing.T) {
	if got := Rebound(100, 0.3); got != 70 {
		t.Errorf("Rebound(100, 0.3) = %v, want 70", got)
	}
	if got := Rebound(100, 0); got != 100 {
		t.Errorf("no rebound = %v", got)
	}
	if got := Rebound(100, 1.0); got != 0 {
		t.Errorf("backfire = %v, want 0", got)
	}
	if got := Rebound(100, 1.5); got != 0 {
		t.Errorf("super-backfire = %v, want 0", got)
	}
	if got := Rebound(100, -0.2); got != 100 {
		t.Errorf("negative factor = %v, want clamped to 100", got)
	}
}
