package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"

	"repro/internal/gateway"
)

// This file drives multi-tenant traffic through a real gateway.Gateway
// in front of a campaign executor, producing per-tenant outcome traces,
// and defines the isolation oracle on top: a benign tenant's outcomes
// and survivor digest must be byte-identical with and without a hostile
// co-tenant's traffic. The differential works because every stream a
// tenant consumes — workload bytes, fault schedule, worker dispatch,
// corruption — is seeded per tenant, and every gateway decision advances
// on tenant-local state (DESIGN.md §12): removing one tenant's arrivals
// cannot move any draw or any admission decision of another.

// TenantSpec describes one tenant's traffic in a gateway scenario.
type TenantSpec struct {
	// Name is the tenant identity ([a-z0-9-]+); the synthetic bearer
	// token is derived from it deterministically.
	Name string
	// Workload selects the request shape this tenant drives.
	Workload Workload
	// Faults is the fault set this tenant's schedule draws from; empty
	// means benign traffic.
	Faults []FaultClass
	// AttackEvery sets the expected fault spacing (as Scenario's field).
	AttackEvery int
	// Weight is the tenant's share of composed arrival slots (default 1):
	// a tenant with Weight 3 arrives three times as often as Weight 1.
	Weight int
	// Hostile marks the tenant the isolation oracle removes in its
	// control run; non-hostile tenants are the ones whose outcomes must
	// not move.
	Hostile bool
	// Limits overrides the scenario's default per-tenant limits.
	Limits *gateway.Limits
}

// GatewayScenario is one multi-tenant gateway composition: tenants with
// weighted interleaved arrivals in front of one executor, admission
// decided by a real gateway.Gateway.
type GatewayScenario struct {
	// Name identifies the scenario in traces and flags.
	Name string
	// Target selects the Runner backend behind the gateway.
	Target Target
	// Tenants is the tenant roster; at least one must be non-hostile.
	Tenants []TenantSpec
	// Requests overrides Config.Requests (composed arrivals across all
	// tenants) when > 0.
	Requests int
	// Limits is the default per-tenant admission bound (TenantSpec.Limits
	// overrides it per tenant).
	Limits gateway.Limits
	// QuarantineAfter, Window, and ProbeEvery configure the circuit
	// breaker exactly as gateway.Config does (zero values take the
	// gateway defaults; QuarantineAfter < 0 disables quarantine).
	QuarantineAfter int
	// Window is the breaker's sliding-window length.
	Window int
	// ProbeEvery is the quarantine probe cadence.
	ProbeEvery uint64
	// DrainAt fires gateway.StartDrain before composed arrival DrainAt
	// (0 = never): every later arrival is rejected as drained. The index
	// is in composed-arrival space, so the drain point is identical in
	// the isolation oracle's full and control runs.
	DrainAt int
}

var tenantName = regexp.MustCompile(`^[a-z0-9-]+$`)

// Validate reports structural problems with the gateway scenario.
func (s GatewayScenario) Validate() error {
	if s.Name == "" {
		return errors.New("campaign: gateway scenario needs a name")
	}
	switch s.Target {
	case TargetDomain, TargetPool, TargetBridge:
	default:
		return fmt.Errorf("campaign: gateway scenario %q: unknown target %v", s.Name, s.Target)
	}
	if len(s.Tenants) == 0 {
		return fmt.Errorf("campaign: gateway scenario %q: no tenants", s.Name)
	}
	seen := make(map[string]bool, len(s.Tenants))
	benign := false
	for _, t := range s.Tenants {
		if !tenantName.MatchString(t.Name) {
			return fmt.Errorf("campaign: gateway scenario %q: bad tenant name %q", s.Name, t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("campaign: gateway scenario %q: duplicate tenant %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		if !t.Hostile {
			benign = true
		}
		switch t.Workload {
		case WorkloadKV, WorkloadHTTP, WorkloadFFI:
		default:
			return fmt.Errorf("campaign: gateway scenario %q tenant %q: unknown workload %v", s.Name, t.Name, t.Workload)
		}
		if len(t.Faults) > 0 && t.AttackEvery <= 0 {
			return fmt.Errorf("campaign: gateway scenario %q tenant %q: faults without AttackEvery", s.Name, t.Name)
		}
	}
	if !benign {
		return fmt.Errorf("campaign: gateway scenario %q: every tenant is hostile; the isolation differential needs a benign tenant", s.Name)
	}
	if s.DrainAt < 0 {
		return fmt.Errorf("campaign: gateway scenario %q: negative DrainAt", s.Name)
	}
	return nil
}

// GatewayOutcome is one composed arrival's record: the standard request
// outcome plus the tenant it belonged to. I is the composed arrival
// index, so full and control runs of the isolation oracle line up
// positionally.
type GatewayOutcome struct {
	// Tenant is the arriving tenant's name.
	Tenant string `json:"t"`
	RequestOutcome
}

// TenantTrace is one tenant's view of a gateway scenario run.
type TenantTrace struct {
	// Tenant is the tenant name; Hostile echoes the spec.
	Tenant  string `json:"tenant"`
	Hostile bool   `json:"hostile,omitempty"`
	// Arrivals counts the tenant's composed arrivals; the admission
	// fields partition them together with the execution outcomes.
	Arrivals    int    `json:"arrivals"`
	Throttled   uint64 `json:"throttled"`
	Quarantined uint64 `json:"quarantined"`
	Drained     uint64 `json:"drained"`
	OK          uint64 `json:"ok"`
	Rejected    uint64 `json:"rejected"`
	Detected    uint64 `json:"detected"`
	Preempted   uint64 `json:"preempted"`
	// Quarantines, Probes, and Readmissions are the tenant's circuit-
	// breaker lifecycle counts from the gateway's own metrics.
	Quarantines  uint64 `json:"quarantines"`
	Probes       uint64 `json:"probes"`
	Readmissions uint64 `json:"readmissions"`
	// SurvivorDigest fingerprints the tenant's trusted survivor state.
	SurvivorDigest string `json:"survivor_digest"`
}

// GatewayTrace is the structured record of one gateway scenario run.
type GatewayTrace struct {
	Scenario string `json:"scenario"`
	Target   string `json:"target"`
	Workers  int    `json:"workers"`
	Requests int    `json:"requests"`
	// Drained reports that StartDrain fired during the run.
	Drained bool `json:"drained,omitempty"`
	// Outcomes has one entry per composed arrival, in arrival order.
	Outcomes []GatewayOutcome `json:"outcomes"`
	// Tenants has one entry per tenant, in roster order.
	Tenants []TenantTrace `json:"tenants"`
	// VirtualCycles is the executor's summed virtual time.
	VirtualCycles uint64 `json:"virtual_cycles"`
}

// JSON renders the trace as stable, indented JSON: same seed, same
// bytes.
func (t *GatewayTrace) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Tenant returns the named tenant's trace, or nil.
func (t *GatewayTrace) Tenant(name string) *TenantTrace {
	for i := range t.Tenants {
		if t.Tenants[i].Tenant == name {
			return &t.Tenants[i]
		}
	}
	return nil
}

// Summary renders a deterministic one-line-per-tenant text report.
func (t *GatewayTrace) Summary() string {
	out := fmt.Sprintf("gateway %s target=%s workers=%d requests=%d drained=%v\n",
		t.Scenario, t.Target, t.Workers, t.Requests, t.Drained)
	for _, tt := range t.Tenants {
		role := "benign"
		if tt.Hostile {
			role = "hostile"
		}
		out += fmt.Sprintf("  %-16s %-7s arrivals=%-5d ok=%-5d rejected=%-4d detected=%-4d preempted=%-4d throttled=%-4d quarantined=%-4d drained=%-4d trips=%d probes=%d readmissions=%d digest=%s\n",
			tt.Tenant, role, tt.Arrivals, tt.OK, tt.Rejected, tt.Detected, tt.Preempted,
			tt.Throttled, tt.Quarantined, tt.Drained, tt.Quarantines, tt.Probes, tt.Readmissions, tt.SurvivorDigest)
	}
	return out
}

// gwRequests resolves the composed arrival count.
func gwRequests(sc GatewayScenario, cfg Config) int {
	if sc.Requests > 0 {
		return sc.Requests
	}
	return cfg.Requests
}

// newGatewayFor builds the real gateway for a scenario run: synthetic
// deterministic tokens, the scenario's limits and breaker settings.
func newGatewayFor(sc GatewayScenario) (*gateway.Gateway, error) {
	tokens := make(map[string]string, len(sc.Tenants))
	overrides := make(map[string]gateway.Limits)
	for _, t := range sc.Tenants {
		tokens[t.Name] = "tok-" + t.Name
		if t.Limits != nil {
			overrides[t.Name] = *t.Limits
		}
	}
	table, err := gateway.NewTable(tokens)
	if err != nil {
		return nil, err
	}
	return gateway.New(gateway.Config{
		Table:           table,
		Limits:          sc.Limits,
		Overrides:       overrides,
		QuarantineAfter: sc.QuarantineAfter,
		Window:          sc.Window,
		ProbeEvery:      sc.ProbeEvery,
	})
}

// slotOrder interleaves tenants by weight into the repeating composed
// arrival pattern: weights {2,1} yield tenant indexes [0,1,0].
func slotOrder(tenants []TenantSpec) []int {
	rem := make([]int, len(tenants))
	total := 0
	for i, t := range tenants {
		w := t.Weight
		if w <= 0 {
			w = 1
		}
		rem[i] = w
		total += w
	}
	out := make([]int, 0, total)
	for len(out) < total {
		for i := range rem {
			if rem[i] > 0 {
				out = append(out, i)
				rem[i]--
			}
		}
	}
	return out
}

// admissionOutcome maps a typed gateway rejection to its trace outcome.
// Quota rejections land in "throttled" with the rate-limit ones: both
// are overload shedding. An unexpected error class maps to
// OutcomeError, which aborts the run.
func admissionOutcome(err error) string {
	if _, ok := gateway.IsRateLimit(err); ok {
		return OutcomeThrottled
	}
	if _, ok := gateway.IsQuota(err); ok {
		return OutcomeThrottled
	}
	if _, ok := gateway.IsQuarantined(err); ok {
		return OutcomeQuarantined
	}
	if gateway.IsDraining(err) {
		return OutcomeDrained
	}
	return OutcomeError
}

// RunGateway executes one gateway scenario: composed arrivals in
// weighted round-robin order, each drawn from its tenant's streams,
// admitted through a real gateway, and executed on the factory's
// backend in waves of cfg.Batch. Same seed, same trace bytes.
//
// Admission (and the drain trigger) happens at draw time in arrival
// order; completions feed back to the gateway in arrival order after
// the wave executes. A tenant can therefore hold up to one wave of
// inflight admissions, which is why shipped scenarios keep per-tenant
// MaxInflight at or above the largest oracle batch size — it makes the
// quota check wave-shape-independent, preserving the isolation
// differential in batched mode.
func RunGateway(sc GatewayScenario, cfg Config, factory ExecutorFactory) (*GatewayTrace, error) {
	return runGateway(sc, cfg, factory, false)
}

// runGateway is RunGateway with the isolation oracle's control switch:
// with skipHostile, hostile tenants' arrivals simply never happen —
// their slots stay empty, so every other tenant keeps its composed
// arrival positions, wave boundaries, and stream draws.
func runGateway(sc GatewayScenario, cfg Config, factory ExecutorFactory, skipHostile bool) (*GatewayTrace, error) {
	cfg = cfg.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	gw, err := newGatewayFor(sc)
	if err != nil {
		return nil, err
	}
	// Each tenant is one stream seeded under the pseudo-scenario name
	// "<scenario>/<tenant>", so streams are independent across tenants
	// and never shared with other scenarios.
	tenants := make([]*stream, len(sc.Tenants))
	for k, t := range sc.Tenants {
		tenants[k], err = newStream(Scenario{
			Name:        sc.Name + "/" + t.Name,
			Workload:    t.Workload,
			Target:      sc.Target,
			Faults:      t.Faults,
			AttackEvery: t.AttackEvery,
		}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		tenants[k].name = t.Name
	}
	slots := slotOrder(sc.Tenants)

	n := gwRequests(sc, cfg)
	tr := &GatewayTrace{
		Scenario: sc.Name,
		Target:   sc.Target.String(),
		Workers:  cfg.Workers,
		Requests: n,
		Outcomes: make([]GatewayOutcome, 0, n),
	}
	err = withExecutor(factory, sc.Target, cfg.Workers, sc.Name, func(ex Executor) error {
		l := waves{ex: ex, workers: cfg.Workers, batch: cfg.Batch, gw: gw,
			next: func(i int) *stream {
				if sc.DrainAt > 0 && i == sc.DrainAt {
					gw.StartDrain()
					tr.Drained = true
				}
				k := slots[i%len(slots)]
				if skipHostile && sc.Tenants[k].Hostile {
					return nil
				}
				return tenants[k]
			},
			done: func(s *stream, out RequestOutcome) {
				tr.Outcomes = append(tr.Outcomes, GatewayOutcome{Tenant: s.name, RequestOutcome: out})
			},
		}
		if err := l.run(n); err != nil {
			return fmt.Errorf("campaign: gateway scenario %q: %w", sc.Name, err)
		}
		tr.VirtualCycles = ex.VirtualCycles()
		return nil
	})
	if err != nil {
		return nil, err
	}

	for k, t := range sc.Tenants {
		tt := TenantTrace{
			Tenant:         t.Name,
			Hostile:        t.Hostile,
			Arrivals:       tenants[k].arrivals,
			SurvivorDigest: tenants[k].ad.digest(),
		}
		c := gw.Stats().Get(t.Name)
		tt.Quarantines, tt.Probes, tt.Readmissions = c.Quarantines, c.Probes, c.Readmissions
		for _, out := range tr.Outcomes {
			if out.Tenant != t.Name {
				continue
			}
			switch out.Outcome {
			case OutcomeOK:
				tt.OK++
			case OutcomeRejected:
				tt.Rejected++
			case OutcomeDetected:
				tt.Detected++
			case OutcomePreempted:
				tt.Preempted++
			case OutcomeThrottled:
				tt.Throttled++
			case OutcomeQuarantined:
				tt.Quarantined++
			case OutcomeDrained:
				tt.Drained++
			}
		}
		tr.Tenants = append(tr.Tenants, tt)
	}
	return tr, nil
}

// CheckIsolation is the gateway tier's differential oracle: for every
// worker count (serial) and every worker-count × batch-size combination
// (batched), the scenario runs twice — once in full, once with every
// hostile tenant's arrivals removed — and each non-hostile tenant's
// per-arrival outcomes and survivor digest must be identical in both
// runs. A divergence means a hostile co-tenant moved a benign tenant's
// admission decisions, stream draws, or surviving state — the isolation
// property the gateway exists to provide. Each check sets its own
// cfg.Workers and cfg.Batch. Defaults: workers 1/4/8, batches 8/32.
func CheckIsolation(sc GatewayScenario, cfg Config, factory ExecutorFactory, workerCounts, batchSizes []int) ([]OracleResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	hostile := false
	for _, t := range sc.Tenants {
		hostile = hostile || t.Hostile
	}
	if !hostile {
		return nil, fmt.Errorf("campaign: isolation oracle on %q: no hostile tenant to remove", sc.Name)
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	if len(batchSizes) == 0 {
		batchSizes = []int{8, 32}
	}
	var out []OracleResult
	check := func(oracle string, w, batch int) error {
		cfg.Workers, cfg.Batch = w, batch
		full, err := runGateway(sc, cfg, factory, false)
		if err != nil {
			return fmt.Errorf("campaign: isolation full run (w=%d,b=%d): %w", w, batch, err)
		}
		ctrl, err := runGateway(sc, cfg, factory, true)
		if err != nil {
			return fmt.Errorf("campaign: isolation control run (w=%d,b=%d): %w", w, batch, err)
		}
		res := OracleResult{Oracle: oracle, Scenario: fmt.Sprintf("%s(w=%d)", sc.Name, w), Pass: true}
		if d := diffIsolation(full, ctrl); d != "" {
			res.Pass, res.Detail = false, d
		}
		out = append(out, res)
		return nil
	}
	for _, w := range workerCounts {
		if err := check("isolation", w, 1); err != nil {
			return out, err
		}
	}
	for _, w := range workerCounts {
		for _, b := range batchSizes {
			if err := check(fmt.Sprintf("isolation(batch=%d)", b), w, b); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// diffIsolation compares every non-hostile tenant between the full run
// and the hostile-removed control run and describes the first
// divergence.
func diffIsolation(full, ctrl *GatewayTrace) string {
	for _, tt := range full.Tenants {
		if tt.Hostile {
			continue
		}
		ct := ctrl.Tenant(tt.Tenant)
		if ct == nil {
			return fmt.Sprintf("tenant %s missing from control run", tt.Tenant)
		}
		var f, c []GatewayOutcome
		for _, o := range full.Outcomes {
			if o.Tenant == tt.Tenant {
				f = append(f, o)
			}
		}
		for _, o := range ctrl.Outcomes {
			if o.Tenant == tt.Tenant {
				c = append(c, o)
			}
		}
		if len(f) != len(c) {
			return fmt.Sprintf("tenant %s: %d arrivals in full run vs %d in control", tt.Tenant, len(f), len(c))
		}
		for i := range f {
			if f[i] != c[i] {
				return fmt.Sprintf("tenant %s arrival %d: %s/%s/%s@w%d(i=%d) in full run vs %s/%s/%s@w%d(i=%d) in control",
					tt.Tenant, i,
					f[i].Fault, f[i].Outcome, f[i].Mech, f[i].W, f[i].I,
					c[i].Fault, c[i].Outcome, c[i].Mech, c[i].W, c[i].I)
			}
		}
		if tt.SurvivorDigest != ct.SurvivorDigest {
			return fmt.Sprintf("tenant %s: survivor digest %s in full run vs %s in control",
				tt.Tenant, tt.SurvivorDigest, ct.SurvivorDigest)
		}
	}
	return ""
}
