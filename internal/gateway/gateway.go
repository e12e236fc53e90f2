// Package gateway is the production front tier for the demo servers:
// tenant identity from static bearer tokens, per-tenant token-bucket
// rate limiting and inflight quotas, per-tenant fault isolation with
// repeated-offender circuit breaking, and graceful-drain lifecycle
// state. The package is protocol-agnostic — the kvstore and httpd
// NetServers translate its typed rejections onto their wires — and
// fully deterministic: every limiter advances on tenant-local request
// arrivals and every retry hint is a quantized virtual-cycle quantity,
// so no decision ever reads the wall clock (DESIGN.md §12).
//
// Tenant locality is the load-bearing design decision: buckets,
// windows, and quotas are keyed and clocked per tenant, never globally,
// so one tenant's traffic cannot move another tenant's admission
// decisions. The campaign isolation oracle (internal/campaign) holds
// this as a differential: a benign tenant's outcomes must be
// byte-identical with and without a hostile co-tenant.
package gateway

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Limits bounds one tenant's admission.
type Limits struct {
	// Burst is the token-bucket capacity (default 8): how many requests
	// a tenant may issue back to back before the refill rate gates it.
	Burst int
	// RefillEvery grants one token per this many tenant-local arrivals
	// (default 2): a steady offered load is admitted at 1/RefillEvery of
	// its rate once the burst is spent.
	RefillEvery uint64
	// MaxInflight caps admitted-but-unfinished requests (default 64) —
	// the per-tenant share of the pool-wide submission backlog.
	MaxInflight int
}

func (l *Limits) fill() {
	if l.Burst <= 0 {
		l.Burst = 8
	}
	if l.RefillEvery == 0 {
		l.RefillEvery = 2
	}
	if l.MaxInflight <= 0 {
		l.MaxInflight = 64
	}
}

// Config configures a Gateway.
type Config struct {
	// Table is the static token→tenant map (required).
	Table *Table
	// Limits is the default per-tenant admission bound; Overrides
	// replaces it for named tenants.
	Limits Limits
	// Overrides maps tenant names to tenant-specific limits.
	Overrides map[string]Limits
	// QuarantineAfter trips the circuit breaker when a tenant
	// accumulates this many detections inside the sliding window
	// (default 3; <0 disables quarantine).
	QuarantineAfter int
	// Window is the sliding-window length in completed requests
	// (default 16).
	Window int
	// ProbeEvery admits every Nth arrival of a quarantined tenant as a
	// re-admission probe (default 8): a clean probe lifts the
	// quarantine, a detected one keeps it.
	ProbeEvery uint64
	// RetryCyclesPerRequest is the virtual-cycle cost estimate behind
	// retry hints (default 300_000 ≈ the servers' 100µs inter-arrival at
	// vclock.DefaultCPUHz).
	RetryCyclesPerRequest uint64
}

func (c *Config) fill() {
	c.Limits.fill()
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 8
	}
	if c.RetryCyclesPerRequest == 0 {
		c.RetryCyclesPerRequest = 300_000
	}
}

// tenantState is one tenant's admission machinery. Every field advances
// only on that tenant's own arrivals and completions — the clock is the
// tenant's traffic, so state evolution is a pure function of the
// tenant's request sequence.
type tenantState struct {
	lim Limits

	// arrivals counts admission attempts; refillMark is the arrival
	// count already converted into tokens.
	arrivals   uint64
	refillMark uint64
	tokens     int

	inflight int

	// window is a ring of the last lim completions' detection bits; hot
	// counts the true entries.
	window []bool
	wpos   int
	wlen   int
	hot    int

	quarantined   bool
	sinceProbe    uint64
	probeInflight bool
}

// Gateway is the admission front tier. Safe for concurrent use; all
// state transitions happen under one mutex, so admission decisions and
// outcome observations serialize into a single deterministic
// per-tenant history.
type Gateway struct {
	mu       sync.Mutex
	cfg      Config
	stats    *metrics.TenantStats
	tenants  map[string]*tenantState
	draining bool
}

// New builds a Gateway; cfg.Table is required and every configured
// tenant gets its state eagerly so health output is stable from the
// first request.
func New(cfg Config) (*Gateway, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("gateway: config needs a tenant table")
	}
	cfg.fill()
	g := &Gateway{
		cfg:     cfg,
		stats:   metrics.NewTenantStats(),
		tenants: make(map[string]*tenantState),
	}
	for _, name := range cfg.Table.Tenants() {
		lim := cfg.Limits
		if o, ok := cfg.Overrides[name]; ok {
			o.fill()
			lim = o
		}
		g.tenants[name] = &tenantState{
			lim:    lim,
			tokens: lim.Burst,
			window: make([]bool, cfg.Window),
		}
	}
	return g, nil
}

// Authenticate resolves a presented token to a tenant name
// (constant-time table scan) or returns a typed *AuthError.
func (g *Gateway) Authenticate(token []byte) (string, error) {
	tenant, ok := g.cfg.Table.Lookup(token)
	if !ok {
		return "", &AuthError{Reason: "unknown token"}
	}
	return tenant, nil
}

// Ticket is one admitted request. Exactly one Done call per ticket
// releases the inflight slot and feeds the tenant's detection window.
type Ticket struct {
	g      *Gateway
	tenant string
	probe  bool
	done   bool
}

// Admit runs the admission pipeline for one arrival of tenant: drain
// gate, token-bucket refill and charge, circuit-breaker gate (with
// probe scheduling), and inflight quota. It returns a Ticket, or a
// typed rejection (*DrainingError, *RateLimitError, *QuarantinedError,
// *QuotaError). The tenant must exist in the table; unknown tenants are
// rejected as an auth failure.
func (g *Gateway) Admit(tenant string) (*Ticket, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts := g.tenants[tenant]
	if ts == nil {
		return nil, &AuthError{Reason: "unknown tenant"}
	}
	if g.draining {
		g.stats.Observe(tenant, func(c *metrics.TenantCounters) { c.Drained++ })
		return nil, &DrainingError{}
	}
	ts.arrivals++
	// Refill on the tenant-local arrival clock: one token per
	// RefillEvery arrivals, capped at Burst. refillMark tracks arrivals
	// already converted, so fractional progress carries across calls.
	if delta := ts.arrivals - ts.refillMark; delta >= ts.lim.RefillEvery {
		grant := delta / ts.lim.RefillEvery
		ts.refillMark += grant * ts.lim.RefillEvery
		ts.tokens += int(grant)
		if ts.tokens > ts.lim.Burst {
			ts.tokens = ts.lim.Burst
		}
	}
	if ts.quarantined {
		ts.sinceProbe++
		if ts.sinceProbe >= g.cfg.ProbeEvery && !ts.probeInflight {
			ts.probeInflight = true
			ts.sinceProbe = 0
			ts.inflight++
			g.stats.Observe(tenant, func(c *metrics.TenantCounters) {
				c.Admitted++
				c.Probes++
			})
			return &Ticket{g: g, tenant: tenant, probe: true}, nil
		}
		probeIn := uint64(0)
		if !ts.probeInflight {
			probeIn = g.cfg.ProbeEvery - ts.sinceProbe
		}
		g.stats.Observe(tenant, func(c *metrics.TenantCounters) { c.QuarantineRejected++ })
		return nil, &QuarantinedError{Tenant: tenant, Detections: ts.hot, ProbeIn: probeIn}
	}
	if ts.tokens <= 0 {
		need := ts.lim.RefillEvery - (ts.arrivals - ts.refillMark)
		g.stats.Observe(tenant, func(c *metrics.TenantCounters) { c.Throttled++ })
		return nil, &RateLimitError{
			Tenant:      tenant,
			RetryCycles: QuantizeRetryCycles(need * g.cfg.RetryCyclesPerRequest),
		}
	}
	if ts.inflight >= ts.lim.MaxInflight {
		g.stats.Observe(tenant, func(c *metrics.TenantCounters) { c.QuotaRejected++ })
		return nil, &QuotaError{
			Tenant:      tenant,
			Inflight:    ts.inflight,
			Limit:       ts.lim.MaxInflight,
			RetryCycles: QuantizeRetryCycles(uint64(ts.inflight) * g.cfg.RetryCyclesPerRequest),
		}
	}
	ts.tokens--
	ts.inflight++
	g.stats.Observe(tenant, func(c *metrics.TenantCounters) { c.Admitted++ })
	return &Ticket{g: g, tenant: tenant}, nil
}

// Done records the admitted request's outcome: detected reports a
// contained memory-safety violation attributed to the tenant, preempted
// a budget preemption. It releases the inflight slot, advances the
// sliding window, and drives the circuit breaker — a window that
// reaches QuarantineAfter detections trips quarantine; a clean probe
// lifts it. Done is idempotent per ticket.
func (t *Ticket) Done(detected, preempted bool) {
	g := t.g
	g.mu.Lock()
	defer g.mu.Unlock()
	if t.done {
		return
	}
	t.done = true
	ts := g.tenants[t.tenant]
	if ts.inflight > 0 {
		ts.inflight--
	}
	g.stats.Observe(t.tenant, func(c *metrics.TenantCounters) {
		c.Completed++
		if detected {
			c.Detections++
		}
		if preempted {
			c.Preemptions++
		}
	})
	if t.probe {
		ts.probeInflight = false
		if !detected {
			// Clean probe: lift the quarantine and reset the window, so
			// the tenant re-enters with a clean slate rather than
			// re-tripping on stale history.
			ts.quarantined = false
			for i := range ts.window {
				ts.window[i] = false
			}
			ts.wpos, ts.wlen, ts.hot = 0, 0, 0
			g.stats.Observe(t.tenant, func(c *metrics.TenantCounters) { c.Readmissions++ })
		}
		return
	}
	// Slide the window: evict the oldest completion's bit, record this
	// one.
	if ts.wlen == len(ts.window) {
		if ts.window[ts.wpos] {
			ts.hot--
		}
	} else {
		ts.wlen++
	}
	ts.window[ts.wpos] = detected
	if detected {
		ts.hot++
	}
	ts.wpos = (ts.wpos + 1) % len(ts.window)
	if detected && !ts.quarantined && g.cfg.QuarantineAfter > 0 && ts.hot >= g.cfg.QuarantineAfter {
		ts.quarantined = true
		ts.sinceProbe = 0
		ts.probeInflight = false
		g.stats.Observe(t.tenant, func(c *metrics.TenantCounters) { c.Quarantines++ })
	}
}

// StartDrain stops admission permanently: every later Admit returns
// *DrainingError. It returns true on the first call, false if the
// gateway was already draining (idempotent).
func (g *Gateway) StartDrain() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.draining = true
	return true
}

// Draining reports whether drain has started.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// Stats exposes the per-tenant counters.
func (g *Gateway) Stats() *metrics.TenantStats { return g.stats }
