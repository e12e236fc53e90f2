package energy

// This file extends the operational model with the life-cycle dimensions
// §IV of the paper calls for: the energy cost of the *development effort*
// a retrofit requires ("that drives up the cost of software development,
// both in terms of money and energy consumption") and rebound effects
// (Gossart's ICT rebound literature, the paper's [4]) that eat into
// projected savings.

// DevEffort models the one-time engineering cost of retrofitting a
// resilience approach into an application.
type DevEffort struct {
	// EngineerHours is the estimated implementation + review effort.
	EngineerHours float64
	// WorkstationWatts is the developer-equipment draw (default 150 W:
	// workstation + share of office overheads).
	WorkstationWatts float64
	// GridGCO2ePerKWh is the carbon intensity at the development site.
	GridGCO2ePerKWh float64
}

// DefaultDevEffortFor returns calibrated retrofit efforts. Manual SDRaD
// compartmentalization of Memcached took 484 lines of wrapper code across
// 2 files (paper §II); at a conservative 10 delivered-and-reviewed lines
// per hour that is ≈50 engineer-hours. The SDRaD-FFI annotation path is
// one registration per wrapped function.
func DefaultDevEffortFor(approach string) DevEffort {
	base := DevEffort{WorkstationWatts: 150, GridGCO2ePerKWh: 350}
	switch approach {
	case "manual-sdrad":
		base.EngineerHours = 50
	case "sdrad-ffi":
		base.EngineerHours = 4
	case "replication-ops":
		// Standing up and operating a replicated pair: deployment automation,
		// failover runbooks, drills (annualized share of a platform team).
		base.EngineerHours = 120
	default:
		base.EngineerHours = 8
	}
	return base
}

// KWh returns the electricity of the development effort.
func (d DevEffort) KWh() float64 {
	w := d.WorkstationWatts
	if w <= 0 {
		w = 150
	}
	return d.EngineerHours * w / 1000
}

// KgCO2e returns the emissions of the development effort.
func (d DevEffort) KgCO2e() float64 {
	g := d.GridGCO2ePerKWh
	if g <= 0 {
		g = 350
	}
	return d.KWh() * g / 1000
}

// Rebound applies a rebound factor to a projected saving: a rebound of
// 0.3 means 30% of the saved capacity is re-consumed (e.g. freed servers
// absorb new workloads), so only 70% of the projected saving
// materializes. Factors at or above 1 (backfire) eliminate the saving.
func Rebound(projectedSavingKgCO2e, factor float64) float64 {
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		return 0
	}
	return projectedSavingKgCO2e * (1 - factor)
}
