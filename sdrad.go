package sdrad

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/lifecycle"
	"repro/internal/mem"
	"repro/internal/vclock"
)

// Addr is an address in the simulated address space.
type Addr = mem.Addr

// Ctx is the view of the system that code running inside a domain
// receives: domain-heap allocation, checked loads and stores, canaried
// stack frames, and nested domain entry.
type Ctx = core.DomainCtx

// ViolationError reports that a domain suffered a memory-safety
// violation and was rewound and discarded.
type ViolationError = core.ViolationError

// IsViolation reports whether err is (or wraps) a *ViolationError.
func IsViolation(err error) (*ViolationError, bool) { return core.IsViolation(err) }

// CostModel re-exports the virtual cost model for configuration.
type CostModel = vclock.CostModel

// DefaultCostModel returns the calibrated default cost model.
func DefaultCostModel() CostModel { return vclock.DefaultCostModel() }

// Option configures a Supervisor.
type Option func(*core.Config)

// WithCostModel overrides the virtual machine's cost model.
func WithCostModel(m CostModel) Option {
	return func(c *core.Config) { c.Cost = m }
}

// WithIntegrityCheckOnExit controls the heap canary sweep on clean domain
// exit (default on).
func WithIntegrityCheckOnExit(on bool) Option {
	return func(c *core.Config) { c.IntegrityCheckOnExit = on }
}

// WithZeroOnDiscard controls scrubbing of domain pages during rewind
// (default on; disabling is faster but leaves stale bytes in discarded
// pages).
func WithZeroOnDiscard(on bool) Option {
	return func(c *core.Config) { c.ZeroOnDiscard = on }
}

// Supervisor owns one simulated machine and its domains. It corresponds
// to the per-process SDRaD runtime state in the C library. Create with
// New.
//
// A Supervisor and its Domains are not safe for concurrent use: the
// simulated machine is single-core, so confine each Supervisor to one
// goroutine at a time. For parallel domain execution across goroutines,
// use Pool, which owns one Supervisor per worker.
type Supervisor struct {
	sys *core.System
}

// New creates a Supervisor with the given options.
func New(opts ...Option) *Supervisor {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &Supervisor{sys: core.NewSystem(cfg)}
}

// Attach wraps an existing core system in a Supervisor, so integrations
// layered directly on internal/core (the in-repo network servers and
// experiment harness) can expose their domains through the public
// Runner API. It is the inverse of (*Supervisor).System.
func Attach(sys *core.System) *Supervisor { return &Supervisor{sys: sys} }

// DomainAt returns a handle to the already-initialized domain at udi —
// the companion to Attach for domains created via core.System.InitDomain.
func (s *Supervisor) DomainAt(udi int) (*Domain, error) {
	if _, err := s.sys.Domain(core.UDI(udi)); err != nil {
		return nil, err
	}
	return &Domain{sup: s, udi: core.UDI(udi), lc: lifecycle.NewMachine("sdrad.Domain")}, nil
}

// DomainOption configures a domain.
type DomainOption func(*core.DomainConfig)

// WithHeapPages sets the domain's initial heap size in 4 KiB pages.
func WithHeapPages(n int) DomainOption {
	return func(c *core.DomainConfig) { c.HeapPages = n }
}

// WithMaxHeapPages bounds domain heap growth.
func WithMaxHeapPages(n int) DomainOption {
	return func(c *core.DomainConfig) { c.MaxHeapPages = n }
}

// WithStackPages sets the domain stack size in pages (a guard page is
// added automatically).
func WithStackPages(n int) DomainOption {
	return func(c *core.DomainConfig) { c.StackPages = n }
}

// NewDomain initializes a fresh isolated domain. Up to 14 domains can be
// live at once: the architecture provides 16 protection keys, one of
// which is the default key and one of which the supervisor reserves for
// root-protected pages (adopted heaps).
func (s *Supervisor) NewDomain(opts ...DomainOption) (*Domain, error) {
	var cfg core.DomainConfig
	for _, o := range opts {
		o(&cfg)
	}
	dom, err := s.sys.CreateDomain(cfg)
	if err != nil {
		return nil, err
	}
	return &Domain{sup: s, udi: dom.UDI(), lc: lifecycle.NewMachine("sdrad.Domain")}, nil
}

// VirtualTime returns the elapsed virtual time on the simulated machine.
func (s *Supervisor) VirtualTime() time.Duration { return s.sys.Clock().Now() }

// VirtualCycles returns the elapsed virtual time in cycles — the exact
// integer the campaign engine's parity oracles compare (durations round
// through the cost model's frequency; cycles do not).
func (s *Supervisor) VirtualCycles() uint64 { return s.sys.Clock().Cycles() }

// DetectionCounts returns, per detection mechanism name, how many
// memory-safety events the supervisor has contained.
func (s *Supervisor) DetectionCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for m := detect.MechDomainViolation; m <= detect.MechSegfault; m++ {
		if n := s.sys.Counters().Count(m); n > 0 {
			out[m.String()] = n
		}
	}
	return out
}

// System exposes the underlying core system. It is intended for the
// in-repo experiment harness and advanced integrations; the methods of
// Supervisor and Domain cover normal use.
func (s *Supervisor) System() *core.System { return s.sys }

// DomainStats reports one domain's lifecycle counters.
type DomainStats struct {
	// Entries counts Run invocations.
	Entries uint64
	// CleanExits counts Runs that returned without a violation.
	CleanExits uint64
	// Violations counts contained memory-safety events.
	Violations uint64
	// Rewinds counts rewind-and-discard recoveries (violations plus
	// budget preemptions).
	Rewinds uint64
	// Preemptions counts runs cancelled by an exhausted cycle budget.
	Preemptions uint64
	// RewindTime is the total virtual time spent recovering.
	RewindTime time.Duration
}

// Domain is an isolated, rewindable domain.
type Domain struct {
	sup *Supervisor
	udi core.UDI
	lc  *lifecycle.Machine
	// onBatch, when set, observes every DoBatch/DoBatchItems resolution
	// on this handle — the batch commit hook (see BatchReport).
	onBatch func(BatchReport)
	// batch is the batch engine and its reused slices (see batcher).
	batch *domainBatch
}

// State returns the domain's lifecycle state.
func (d *Domain) State() lifecycle.State { return d.lc.State() }

// Drain marks the domain as no longer admitting work. A domain has a
// single owner and no queue, so the transition is the whole drain: the
// owner stops submitting, and the state change makes that observable to
// health aggregators. Idempotent; refused after Close.
func (d *Domain) Drain() error { return d.lc.Drain(nil) }

// UDI returns the domain's index (its handle in the C API).
func (d *Domain) UDI() int { return int(d.udi) }

// OnBatch registers fn to observe every batch resolution on this domain
// handle. The report fires after the batch's errors are final, on the
// submitting goroutine. Durability layers use it to align group commits
// with batch boundaries; pass nil to remove the observer.
func (d *Domain) OnBatch(fn func(BatchReport)) { d.onBatch = fn }

// Write copies data into the domain's memory at addr with supervisor
// rights — how the trusted side passes inputs in.
func (d *Domain) Write(addr Addr, data []byte) error {
	return d.sup.sys.CopyToDomain(addr, data)
}

// Read copies n bytes at addr out of the domain with supervisor rights —
// how the trusted side extracts results after a clean Run.
func (d *Domain) Read(addr Addr, n int) ([]byte, error) {
	return d.sup.sys.CopyFromDomain(addr, n)
}

// Alloc allocates n bytes in the domain's heap from the trusted side
// (sdrad_malloc with a UDI argument in the C API).
func (d *Domain) Alloc(n int) (Addr, error) {
	dom, err := d.sup.sys.Domain(d.udi)
	if err != nil {
		return 0, err
	}
	return dom.Heap().Alloc(n)
}

// Free releases a domain-heap allocation from the trusted side.
func (d *Domain) Free(addr Addr) error {
	dom, err := d.sup.sys.Domain(d.udi)
	if err != nil {
		return err
	}
	return dom.Heap().Free(addr)
}

// Stats returns the domain's lifecycle counters.
func (d *Domain) Stats() (DomainStats, error) {
	dom, err := d.sup.sys.Domain(d.udi)
	if err != nil {
		return DomainStats{}, err
	}
	st := dom.Stats()
	hz := d.sup.sys.Clock().Model().CPUHz
	return DomainStats{
		Entries:     st.Entries,
		CleanExits:  st.CleanExits,
		Violations:  st.Violations,
		Rewinds:     st.Rewinds,
		Preemptions: st.Preemptions,
		RewindTime:  vclock.CyclesToDuration(st.RewindCycles(), hz),
	}, nil
}

// Discard resets the domain's memory to a pristine state in place: the
// heap is reset (and scrubbed unless WithZeroOnDiscard(false)), while the
// domain's protection key, page mappings, and stack survive. It is the
// explicit half of rewind-and-discard — what a violation does implicitly
// — and is how a warm domain is recycled between requests without paying
// Close+NewDomain.
func (d *Domain) Discard() error {
	return d.sup.sys.DiscardDomain(d.udi)
}

// Close tears the domain down, releasing its pages and protection key.
// Idempotent: later calls return the first outcome.
func (d *Domain) Close() error { return d.lc.Close(d.teardown) }

func (d *Domain) teardown() error {
	if err := d.sup.sys.DeinitDomain(d.udi); err != nil {
		return fmt.Errorf("sdrad: close domain %d: %w", d.udi, err)
	}
	return nil
}

// MemoryStats reports the supervisor's simulated-memory footprint and
// traffic, for operational introspection.
type MemoryStats struct {
	// MappedPages is the number of 4 KiB pages currently mapped across
	// all domains (heaps, stacks, guard pages).
	MappedPages int
	// Loads and Stores count access operations since creation.
	Loads, Stores uint64
	// BytesRead and BytesWritten count payload bytes moved.
	BytesRead, BytesWritten uint64
	// Faults counts denied accesses (all kinds).
	Faults uint64
	// DirtyPages is the number of mapped pages written since they were
	// last known all-zero — the bound on the host-side cost of the next
	// discard scrub.
	DirtyPages int
	// TLBHits and TLBMisses count software-TLB outcomes on the machine's
	// access path (host-side instrumentation of the translation fast
	// path; no virtual cost).
	TLBHits, TLBMisses uint64
	// Domains is the number of live domains.
	Domains int
}

// Interface compliance check.
var _ lifecycle.Component = (*Domain)(nil)

// MemoryStats returns a snapshot of the machine's memory accounting.
func (s *Supervisor) MemoryStats() MemoryStats {
	ms := s.sys.Mem().Stats()
	return MemoryStats{
		MappedPages:  s.sys.Mem().MappedPages(),
		Loads:        ms.Loads,
		Stores:       ms.Stores,
		BytesRead:    ms.BytesRead,
		BytesWritten: ms.BytesWritten,
		Faults:       ms.Faults,
		DirtyPages:   s.sys.Mem().DirtyPages(),
		TLBHits:      ms.TLBHits,
		TLBMisses:    ms.TLBMisses,
		Domains:      s.sys.Domains(),
	}
}
