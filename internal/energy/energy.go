// Package energy implements the environmental-sustainability model the
// paper calls for in §IV: operational energy, power-usage effectiveness,
// and embodied ("grey") carbon of the hardware footprint each resilience
// strategy requires.
//
// The paper's argument: replication achieves availability by
// over-provisioning hardware, which costs both operational energy
// (running 2N servers) and embodied emissions (manufacturing them);
// SDRaD reaches comparable availability on a single instance with only a
// small runtime overhead. This package turns that argument into numbers.
// Constants follow published LCA figures for a commodity 2-socket server
// (≈1.3 tCO₂e embodied, 4–5 year life, ~200 W average draw) and typical
// datacentre PUE ≈1.4; all are configurable.
package energy

import (
	"repro/internal/avail"
	"repro/internal/procmodel"
)

// ServerModel describes one server's power and embodied-carbon profile.
type ServerModel struct {
	// IdleWatts is the power draw at zero load.
	IdleWatts float64
	// PeakWatts is the draw at full utilization; actual draw is
	// interpolated linearly with utilization.
	PeakWatts float64
	// PUE is the datacentre power-usage effectiveness multiplier.
	PUE float64
	// EmbodiedKgCO2e is the cradle-to-gate manufacturing footprint.
	EmbodiedKgCO2e float64
	// LifetimeYears amortizes the embodied footprint.
	LifetimeYears float64
	// GridGCO2ePerKWh is the carbon intensity of the electricity supply.
	GridGCO2ePerKWh float64
}

// DefaultServer returns the calibrated server model described in the
// package comment.
func DefaultServer() ServerModel {
	return ServerModel{
		IdleWatts:       110,
		PeakWatts:       350,
		PUE:             1.4,
		EmbodiedKgCO2e:  1300,
		LifetimeYears:   4,
		GridGCO2ePerKWh: 350,
	}
}

// PowerAt returns wall power (including PUE) at a utilization in [0,1].
func (s ServerModel) PowerAt(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return (s.IdleWatts + (s.PeakWatts-s.IdleWatts)*util) * s.PUE
}

// KWhPerYear returns annual electricity for one server at a utilization.
func (s ServerModel) KWhPerYear(util float64) float64 {
	hours := avail.Year.Hours()
	return s.PowerAt(util) * hours / 1000
}

// OperationalKgCO2ePerYear returns annual operational emissions for one
// server at a utilization.
func (s ServerModel) OperationalKgCO2ePerYear(util float64) float64 {
	return s.KWhPerYear(util) * s.GridGCO2ePerKWh / 1000
}

// EmbodiedKgCO2ePerYear returns the amortized embodied emissions of one
// server.
func (s ServerModel) EmbodiedKgCO2ePerYear() float64 {
	if s.LifetimeYears <= 0 {
		return s.EmbodiedKgCO2e
	}
	return s.EmbodiedKgCO2e / s.LifetimeYears
}

// Assessment is the annual footprint of running one logical service with
// a given resilience strategy.
type Assessment struct {
	// Strategy names the assessed strategy.
	Strategy string
	// Servers is the hardware replication factor.
	Servers float64
	// Utilization is the effective per-server utilization, including the
	// strategy's steady-state overhead.
	Utilization float64
	// KWhPerYear is total annual electricity across all servers.
	KWhPerYear float64
	// OperationalKgCO2e and EmbodiedKgCO2e are annual emissions.
	OperationalKgCO2e float64
	EmbodiedKgCO2e    float64
	// AchievedAvailability under the assessed fault model.
	AchievedAvailability float64
	// MeetsTarget reports whether the availability target is met.
	MeetsTarget bool
}

// TotalKgCO2e returns operational plus embodied annual emissions.
func (a Assessment) TotalKgCO2e() float64 {
	return a.OperationalKgCO2e + a.EmbodiedKgCO2e
}

// Scenario describes the service being assessed.
type Scenario struct {
	// Server is the hardware model.
	Server ServerModel
	// BaseUtilization is the utilization of one unreplicated instance
	// serving the whole workload (default 0.6).
	BaseUtilization float64
	// StateBytes is the in-memory application state (drives restart
	// recovery time).
	StateBytes uint64
	// FaultsPerYear is the memory-corruption fault rate.
	FaultsPerYear float64
	// TargetAvailability is the availability target fraction.
	TargetAvailability float64
}

// DefaultScenario returns the paper's worked example: a 10 GB memcached
// instance, three faults per year, five-nines target.
func DefaultScenario() Scenario {
	return Scenario{
		Server:             DefaultServer(),
		BaseUtilization:    0.6,
		StateBytes:         10_000_000_000,
		FaultsPerYear:      3,
		TargetAvailability: avail.NinesTarget(5),
	}
}

// Assess computes the annual footprint and achieved availability of one
// strategy under the scenario.
//
// Replicated strategies (Servers > 1) spread the same work over more
// machines, so per-server utilization drops but idle draw multiplies —
// this is the over-provisioning cost §IV describes. Steady-state overhead
// (SDRaD's 2–4%) raises effective utilization instead.
func Assess(sc Scenario, st procmodel.Strategy) Assessment {
	if sc.BaseUtilization <= 0 {
		sc.BaseUtilization = 0.6
	}
	servers := st.Servers()
	if servers < 1 {
		servers = 1
	}
	util := sc.BaseUtilization * (1 + st.SteadyOverhead()) / servers
	if util > 1 {
		util = 1
	}

	recovery := st.RecoveryTime(sc.StateBytes)
	downtime := avail.Downtime(sc.FaultsPerYear, recovery)
	achieved := avail.Availability(downtime)

	kwh := sc.Server.KWhPerYear(util) * servers
	op := sc.Server.OperationalKgCO2ePerYear(util) * servers
	emb := sc.Server.EmbodiedKgCO2ePerYear() * servers

	return Assessment{
		Strategy:             st.Name(),
		Servers:              servers,
		Utilization:          util,
		KWhPerYear:           kwh,
		OperationalKgCO2e:    op,
		EmbodiedKgCO2e:       emb,
		AchievedAvailability: achieved,
		MeetsTarget:          achieved >= sc.TargetAvailability,
	}
}

// AssessAll runs Assess for each strategy.
func AssessAll(sc Scenario, sts []procmodel.Strategy) []Assessment {
	out := make([]Assessment, len(sts))
	for i, st := range sts {
		out[i] = Assess(sc, st)
	}
	return out
}

// SavingsVs returns the fractional total-CO₂e saving of a relative to b
// (positive when a emits less).
func SavingsVs(a, b Assessment) float64 {
	tb := b.TotalKgCO2e()
	if tb == 0 {
		return 0
	}
	return 1 - a.TotalKgCO2e()/tb
}
