// Package avail implements the dependability arithmetic behind the
// paper's availability claims (§IV): downtime budgets for "nines"
// targets, achieved availability under a fault rate and recovery time,
// and the maximum number of recoveries a budget admits.
//
// The paper's worked example: 99.999% availability allows ≈5.26 minutes
// of downtime per year; three faults per year at a 2-minute restart
// (6 minutes down) violates it, while 3.5 µs rewinds allow more than
// 9·10⁷ recoveries within the same budget.
package avail

import (
	"fmt"
	"math"
	"time"
)

// Year is the reference period for availability accounting (365.25 days).
const Year = 365*24*time.Hour + 6*time.Hour

// DowntimeBudget returns the allowed downtime per year for an
// availability target expressed as a fraction (e.g. 0.99999).
func DowntimeBudget(target float64) time.Duration {
	if target >= 1 {
		return 0
	}
	if target < 0 {
		target = 0
	}
	return time.Duration((1 - target) * float64(Year))
}

// NinesTarget converts a number of nines (5 → 0.99999) to a fraction.
func NinesTarget(nines int) float64 {
	if nines <= 0 {
		return 0
	}
	return 1 - math.Pow(10, -float64(nines))
}

// Downtime returns the expected downtime per year given a fault rate
// (faults per year) and a per-fault recovery time.
func Downtime(faultsPerYear float64, recovery time.Duration) time.Duration {
	if faultsPerYear < 0 {
		faultsPerYear = 0
	}
	d := faultsPerYear * float64(recovery)
	if d > float64(Year) {
		return Year
	}
	return time.Duration(d)
}

// Availability returns the achieved availability fraction given expected
// downtime per year.
func Availability(downtime time.Duration) float64 {
	if downtime <= 0 {
		return 1
	}
	if downtime >= Year {
		return 0
	}
	return 1 - float64(downtime)/float64(Year)
}

// Nines returns the number of nines of an availability fraction, as a
// real number (0.99995 → 4.3). Perfect availability returns +Inf.
func Nines(availability float64) float64 {
	if availability >= 1 {
		return math.Inf(1)
	}
	if availability <= 0 {
		return 0
	}
	return -math.Log10(1 - availability)
}

// Meets reports whether the achieved downtime stays within the budget of
// the target availability fraction.
func Meets(faultsPerYear float64, recovery time.Duration, target float64) bool {
	return Downtime(faultsPerYear, recovery) <= DowntimeBudget(target)
}

// MaxRecoveries returns how many recoveries of the given duration fit in
// the downtime budget of the target availability — the paper's ">9·10⁷
// recoveries" computation.
func MaxRecoveries(target float64, recovery time.Duration) float64 {
	if recovery <= 0 {
		return math.Inf(1)
	}
	return float64(DowntimeBudget(target)) / float64(recovery)
}

// FormatAvailability renders an availability fraction in the conventional
// "99.999%" style with enough digits to show the nines.
func FormatAvailability(a float64) string {
	if a >= 1 {
		return "100%"
	}
	n := Nines(a)
	if n > 9 {
		// Beyond nine nines the decimal rendering is unreadable; report
		// the nines count directly.
		return fmt.Sprintf("~100%% (%.1f nines)", n)
	}
	// Floor the nines so 4.95 nines renders as "99.99%", not a rounded-up
	// "99.999%" that would contradict a failed five-nines check.
	decimals := int(n) - 2
	if decimals < 1 {
		decimals = 1
	}
	if decimals > 8 {
		decimals = 8
	}
	// Truncate instead of rounding: "99.99%" must never render as
	// "100.00%" or as a nines count it does not actually reach.
	scale := math.Pow(10, float64(decimals))
	truncated := math.Floor(a*100*scale) / scale
	return fmt.Sprintf("%.*f%%", decimals, truncated)
}
