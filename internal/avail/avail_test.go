package avail

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestFiveNinesBudgetIsAboutFivePointThreeMinutes(t *testing.T) {
	// The paper's arithmetic: 99.999% allows ≈5.26 min/year.
	b := DowntimeBudget(NinesTarget(5))
	if b < 5*time.Minute || b > 6*time.Minute {
		t.Errorf("five-nines budget = %v, want ≈5.26min", b)
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// "a regular restart takes about 2 minutes (which would violate
	// 99.999% availability if there were three faults per year)".
	target := NinesTarget(5)
	if Meets(3, 2*time.Minute, target) {
		t.Error("3 faults/yr at 2min restart should violate five nines")
	}
	// "in-process rewinding takes only 3.5µs, allowing for more than
	// 9·10⁷ recoveries".
	n := MaxRecoveries(target, 3500*time.Nanosecond)
	if n < 9e7 {
		t.Errorf("max recoveries at 3.5µs = %.3g, want > 9e7", n)
	}
	if !Meets(9e7, 3500*time.Nanosecond, target) {
		t.Error("9e7 rewinds should still meet five nines")
	}
}

func TestNinesTarget(t *testing.T) {
	cases := map[int]float64{1: 0.9, 2: 0.99, 3: 0.999, 5: 0.99999}
	for n, want := range cases {
		if got := NinesTarget(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("NinesTarget(%d) = %v, want %v", n, got, want)
		}
	}
	if NinesTarget(0) != 0 || NinesTarget(-1) != 0 {
		t.Error("non-positive nines should be 0")
	}
}

func TestDowntimeBudgetEdges(t *testing.T) {
	if DowntimeBudget(1) != 0 {
		t.Error("perfect availability should allow zero downtime")
	}
	if DowntimeBudget(0) != Year {
		t.Errorf("zero availability budget = %v, want a full year", DowntimeBudget(0))
	}
	if DowntimeBudget(-0.5) != Year {
		t.Error("negative target should clamp")
	}
}

func TestDowntimeComputation(t *testing.T) {
	if d := Downtime(3, 2*time.Minute); d != 6*time.Minute {
		t.Errorf("Downtime = %v, want 6min", d)
	}
	if d := Downtime(0, time.Hour); d != 0 {
		t.Errorf("zero faults downtime = %v", d)
	}
	if d := Downtime(-1, time.Hour); d != 0 {
		t.Error("negative fault rate should clamp to 0")
	}
	// Saturates at a full year.
	if d := Downtime(1e12, time.Hour); d != Year {
		t.Errorf("saturated downtime = %v, want Year", d)
	}
}

func TestAvailabilityAndNines(t *testing.T) {
	a := Availability(DowntimeBudget(0.999))
	if math.Abs(a-0.999) > 1e-9 {
		t.Errorf("Availability(budget(0.999)) = %v", a)
	}
	if Availability(0) != 1 {
		t.Error("zero downtime should be 100%")
	}
	if Availability(Year) != 0 || Availability(2*Year) != 0 {
		t.Error("full-year downtime should be 0%")
	}
	if n := Nines(0.999); math.Abs(n-3) > 1e-6 {
		t.Errorf("Nines(0.999) = %v, want 3", n)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Error("Nines(1) should be +Inf")
	}
	if Nines(0) != 0 || Nines(-1) != 0 {
		t.Error("Nines of non-positive availability should be 0")
	}
}

func TestMaxRecoveriesEdge(t *testing.T) {
	if !math.IsInf(MaxRecoveries(0.99999, 0), 1) {
		t.Error("zero recovery time should allow infinite recoveries")
	}
}

func TestSteadyStateAgreesWithRateFormulation(t *testing.T) {
	// The paper's arithmetic (rate x recovery) and renewal theory's
	// steady state MTTF/(MTTF+MTTR) must agree in the rare-fault regime.
	for _, f := range []float64{1, 3, 10, 100} {
		recovery := 2 * time.Minute
		viaRate := Availability(Downtime(f, recovery))
		mttf := time.Duration(float64(Year) / f)
		viaMTTF := float64(mttf) / float64(mttf+recovery)
		if math.Abs(viaRate-viaMTTF) > 1e-6 {
			t.Errorf("f=%v: rate formulation %v vs renewal %v", f, viaRate, viaMTTF)
		}
	}
}

func TestFormatAvailability(t *testing.T) {
	cases := map[float64]string{
		1:       "100%",
		0.99999: "99.999%",
		0.999:   "99.9%",
	}
	for in, want := range cases {
		if got := FormatAvailability(in); got != want {
			t.Errorf("FormatAvailability(%v) = %q, want %q", in, got, want)
		}
	}
	if s := FormatAvailability(0.5); !strings.Contains(s, "%") {
		t.Errorf("FormatAvailability(0.5) = %q", s)
	}
}

// Property: availability/downtime round-trip within floating tolerance.
func TestAvailabilityRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		target := 0.5 + float64(raw)/131072 // [0.5, 1.0)
		got := Availability(DowntimeBudget(target))
		return math.Abs(got-target) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Meets is monotone — fewer faults or faster recovery never
// turns a pass into a fail.
func TestMeetsMonotoneProperty(t *testing.T) {
	f := func(fRaw uint8, rRaw uint16) bool {
		faults := float64(fRaw)
		rec := time.Duration(rRaw) * time.Second
		target := NinesTarget(4)
		if Meets(faults, rec, target) {
			return Meets(faults/2, rec, target) && Meets(faults, rec/2, target)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
