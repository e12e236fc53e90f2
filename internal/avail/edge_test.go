package avail

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestZeroRequestWindow pins the empty-window corner: with no faults at
// all, every target — including perfect availability — is met, the
// expected downtime is zero, and the achieved availability is exactly 1.
func TestZeroRequestWindow(t *testing.T) {
	if d := Downtime(0, 2*time.Minute); d != 0 {
		t.Errorf("Downtime(0, 2m) = %v", d)
	}
	for _, target := range []float64{0, 0.9, 0.99999, 1} {
		if !Meets(0, 2*time.Minute, target) {
			t.Errorf("zero faults fails target %v", target)
		}
	}
	if a := Availability(0); a != 1 {
		t.Errorf("Availability(0) = %v", a)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Error("Nines(1) should be +Inf")
	}
}

// TestNegativeInputsClamp: negative rates, recoveries, and targets
// degrade to their boundary values instead of producing nonsense.
func TestNegativeInputsClamp(t *testing.T) {
	if d := Downtime(-3, time.Minute); d != 0 {
		t.Errorf("Downtime(-3) = %v", d)
	}
	if b := DowntimeBudget(-0.5); b != Year {
		t.Errorf("DowntimeBudget(-0.5) = %v, want full year", b)
	}
	if b := DowntimeBudget(2); b != 0 {
		t.Errorf("DowntimeBudget(2) = %v, want 0", b)
	}
	if n := NinesTarget(0); n != 0 {
		t.Errorf("NinesTarget(0) = %v", n)
	}
	if n := NinesTarget(-4); n != 0 {
		t.Errorf("NinesTarget(-4) = %v", n)
	}
}

// TestDowntimeSaturatesAtYear: a fault rate so high the downtime
// exceeds the accounting period clamps to the period (availability 0),
// never beyond.
func TestDowntimeSaturatesAtYear(t *testing.T) {
	d := Downtime(1e12, time.Hour)
	if d != Year {
		t.Errorf("Downtime(1e12, 1h) = %v, want Year", d)
	}
	if a := Availability(d); a != 0 {
		t.Errorf("Availability(Year) = %v, want 0", a)
	}
	if a := Availability(Year + time.Hour); a != 0 {
		t.Errorf("Availability(>Year) = %v, want 0", a)
	}
	if n := Nines(0); n != 0 {
		t.Errorf("Nines(0) = %v", n)
	}
	if n := Nines(-0.1); n != 0 {
		t.Errorf("Nines(-0.1) = %v", n)
	}
}

// TestMaxRecoveriesExtremes: instant recovery admits unbounded
// recoveries; at perfect-availability targets the budget is zero, so no
// positive-duration recovery fits.
func TestMaxRecoveriesExtremes(t *testing.T) {
	if !math.IsInf(MaxRecoveries(0.99999, 0), 1) {
		t.Error("zero recovery time should allow infinite recoveries")
	}
	if !math.IsInf(MaxRecoveries(0.99999, -time.Second), 1) {
		t.Error("negative recovery time should clamp to infinite")
	}
	if n := MaxRecoveries(1, time.Microsecond); n != 0 {
		t.Errorf("perfect target admits %v recoveries, want 0", n)
	}
}

// TestFormatAvailabilityNeverRoundsUp: the rendering must truncate —
// 0.99994999 shows as four nines territory ("99.99%"), never rounded to
// a five-nines string it does not reach, and values just under 1 never
// print "100".
func TestFormatAvailabilityNeverRoundsUp(t *testing.T) {
	cases := []struct {
		a        float64
		contains string
		excludes string
	}{
		{0.99994999, "99.99", "99.995"},
		{0.9999999999, "nines", "100.0"},
		{0.999949999, "99.99", "100"},
		{1.0, "100%", ""},
		{1.5, "100%", ""},
	}
	for _, tc := range cases {
		got := FormatAvailability(tc.a)
		if !strings.Contains(got, tc.contains) {
			t.Errorf("FormatAvailability(%v) = %q, want it to contain %q", tc.a, got, tc.contains)
		}
		if tc.excludes != "" && strings.Contains(got, tc.excludes) {
			t.Errorf("FormatAvailability(%v) = %q, must not contain %q", tc.a, got, tc.excludes)
		}
	}
}
