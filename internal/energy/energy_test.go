package energy

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/procmodel"
)

func TestPowerInterpolation(t *testing.T) {
	s := DefaultServer()
	idle := s.PowerAt(0)
	full := s.PowerAt(1)
	if idle != s.IdleWatts*s.PUE {
		t.Errorf("idle power = %v", idle)
	}
	if full != s.PeakWatts*s.PUE {
		t.Errorf("full power = %v", full)
	}
	mid := s.PowerAt(0.5)
	if mid <= idle || mid >= full {
		t.Errorf("mid power = %v not between %v and %v", mid, idle, full)
	}
	// Clamping.
	if s.PowerAt(-1) != idle || s.PowerAt(2) != full {
		t.Error("utilization not clamped")
	}
}

func TestKWhPerYearPlausible(t *testing.T) {
	s := DefaultServer()
	kwh := s.KWhPerYear(0.6)
	// ~250W*1.4 ≈ 350W wall → ≈3070 kWh/yr; accept a broad plausible band.
	if kwh < 1000 || kwh > 10000 {
		t.Errorf("kWh/yr = %v, implausible", kwh)
	}
}

func TestEmbodiedAmortization(t *testing.T) {
	s := DefaultServer()
	if got := s.EmbodiedKgCO2ePerYear(); got != s.EmbodiedKgCO2e/s.LifetimeYears {
		t.Errorf("embodied/yr = %v", got)
	}
	z := s
	z.LifetimeYears = 0
	if z.EmbodiedKgCO2ePerYear() != z.EmbodiedKgCO2e {
		t.Error("zero lifetime should not divide by zero")
	}
}

func TestAssessDefaultScenario(t *testing.T) {
	sc := DefaultScenario()

	restart := Assess(sc, procmodel.ProcessRestart{})
	rewind := Assess(sc, procmodel.SDRaDRewind{ZeroOnDiscard: true})
	ap := Assess(sc, procmodel.ActivePassive{})

	// Paper claim C3: restart-only cannot meet five nines at 3 faults/yr.
	if restart.MeetsTarget {
		t.Error("process restart should violate five nines")
	}
	// SDRaD meets it on one server.
	if !rewind.MeetsTarget {
		t.Errorf("SDRaD should meet five nines: achieved %v", rewind.AchievedAvailability)
	}
	if rewind.Servers != 1 {
		t.Errorf("SDRaD servers = %v", rewind.Servers)
	}
	// Active-passive also meets it, but at 2x hardware.
	if !ap.MeetsTarget {
		t.Errorf("active-passive should meet five nines: %v", ap.AchievedAvailability)
	}
	if ap.Servers != 2 {
		t.Errorf("active-passive servers = %v", ap.Servers)
	}
	// Paper claim C7: SDRaD emits substantially less than replication at
	// equal availability. Require >25% total-CO2e savings.
	if s := SavingsVs(rewind, ap); s < 0.25 {
		t.Errorf("CO2e savings vs active-passive = %.2f, want > 0.25", s)
	}
	if rewind.KWhPerYear >= ap.KWhPerYear {
		t.Errorf("SDRaD kWh (%v) should be below active-passive (%v)", rewind.KWhPerYear, ap.KWhPerYear)
	}
}

func TestSDRaDOverheadCostsSomething(t *testing.T) {
	sc := DefaultScenario()
	rewind := Assess(sc, procmodel.SDRaDRewind{ZeroOnDiscard: true})
	restart := Assess(sc, procmodel.ProcessRestart{})
	// Single server each, but SDRaD runs 2–4% hotter.
	if rewind.KWhPerYear <= restart.KWhPerYear {
		t.Error("SDRaD steady overhead should cost energy vs plain restart")
	}
	// Yet the premium is small (<5%).
	if ratio := rewind.KWhPerYear / restart.KWhPerYear; ratio > 1.05 {
		t.Errorf("SDRaD energy premium = %.3f, want < 1.05", ratio)
	}
}

func TestAssessAllCoversStrategies(t *testing.T) {
	sc := DefaultScenario()
	as := AssessAll(sc, procmodel.DefaultStrategies())
	if len(as) != 6 {
		t.Fatalf("assessments = %d", len(as))
	}
	for _, a := range as {
		if a.Strategy == "" || a.KWhPerYear <= 0 || a.TotalKgCO2e() <= 0 {
			t.Errorf("incomplete assessment: %+v", a)
		}
		if a.Utilization <= 0 || a.Utilization > 1 {
			t.Errorf("%s: utilization = %v", a.Strategy, a.Utilization)
		}
	}
}

func TestUtilizationDividesAcrossReplicas(t *testing.T) {
	sc := DefaultScenario()
	one := Assess(sc, procmodel.ProcessRestart{})
	two := Assess(sc, procmodel.ActivePassive{})
	if two.Utilization >= one.Utilization {
		t.Errorf("replicated per-server utilization (%v) should drop below single (%v)",
			two.Utilization, one.Utilization)
	}
}

func TestSavingsVsEdges(t *testing.T) {
	a := Assessment{OperationalKgCO2e: 100, EmbodiedKgCO2e: 0}
	b := Assessment{OperationalKgCO2e: 200, EmbodiedKgCO2e: 0}
	if s := SavingsVs(a, b); s != 0.5 {
		t.Errorf("SavingsVs = %v, want 0.5", s)
	}
	if s := SavingsVs(a, Assessment{}); s != 0 {
		t.Errorf("SavingsVs zero baseline = %v, want 0", s)
	}
}

func TestZeroBaseUtilizationDefaulted(t *testing.T) {
	sc := DefaultScenario()
	sc.BaseUtilization = 0
	a := Assess(sc, procmodel.ProcessRestart{})
	if a.Utilization <= 0 {
		t.Error("zero base utilization not defaulted")
	}
}

func TestDefaultScenarioMatchesPaper(t *testing.T) {
	sc := DefaultScenario()
	if sc.StateBytes != 10_000_000_000 {
		t.Errorf("state = %d, want 10GB", sc.StateBytes)
	}
	if sc.FaultsPerYear != 3 {
		t.Errorf("faults/yr = %v, want 3", sc.FaultsPerYear)
	}
	if sc.TargetAvailability != avail.NinesTarget(5) {
		t.Errorf("target = %v, want five nines", sc.TargetAvailability)
	}
}
