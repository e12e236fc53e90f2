package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"repro/internal/alloc"
	"repro/internal/detect"
	"repro/internal/errtype"
	"repro/internal/mem"
	"repro/internal/pku"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// UDI is a user domain index, the handle applications use to refer to a
// domain (mirroring the sdrad_init(udi, ...) C API).
type UDI int

// RootUDI is the implicit root (trusted) domain of the application.
const RootUDI UDI = 0

// Sentinel errors.
var (
	// ErrDomainExists is returned when initializing an already-used UDI.
	ErrDomainExists = errors.New("sdrad: domain already initialized")
	// ErrNoDomain is returned for operations on an unknown UDI.
	ErrNoDomain = errors.New("sdrad: domain not initialized")
	// ErrDomainActive is returned when deinitializing a domain that is
	// currently executing.
	ErrDomainActive = errors.New("sdrad: domain is active")
)

// ViolationError is returned by Enter when the entered domain suffered a
// memory-safety violation and was rewound and discarded. It is the Go
// analogue of sdrad_enter returning SDRAD_FAULT after the signal handler
// longjmps back.
type ViolationError struct {
	// UDI identifies the faulting domain.
	UDI UDI
	// Mechanism is the detector that fired.
	Mechanism detect.Mechanism
	// Cause is the underlying error (a *mem.Fault, canary error, or the
	// value of a panic in domain code).
	Cause error
	// RewindTime is the virtual time the rewind-and-discard took.
	RewindTime vclock.Clock
	// sys identifies the System whose domain was rewound: UDIs are
	// per-System, so RewoundBy needs both to attribute the rewind.
	sys *System
}

// Error implements error. It renders what
// fmt.Sprintf("sdrad: domain %d violation (%s): %v", ...) would, in one
// allocation past the cause's own text.
func (v *ViolationError) Error() string {
	cause := "<nil>"
	if v.Cause != nil {
		cause = v.Cause.Error()
	}
	var udi [20]byte
	return "sdrad: domain " + string(strconv.AppendInt(udi[:0], int64(v.UDI), 10)) +
		" violation (" + v.Mechanism.String() + "): " + cause
}

// Unwrap returns the underlying cause.
func (v *ViolationError) Unwrap() error { return v.Cause }

// IsViolation reports whether err is (or wraps) a *ViolationError,
// returning it. It allocates nothing, hit or miss (errtype.As).
func IsViolation(err error) (*ViolationError, bool) {
	return errtype.As[*ViolationError](err)
}

// trapSlot carries a detected violation up to the domain boundary,
// emulating the hardware trap + signal delivery path: DomainCtx.trap
// stores the cause in its System's slot and panics with a pointer to
// the slot, which runGuarded recovers and empties. The panic value is a
// pointer into the System, so a trap allocates nothing, and the cause is
// read from the System that trapped even when the recovering Enter
// belongs to another. It never escapes the package.
type trapSlot struct {
	cause error
}

// panicError is the cause recorded when domain code panics (a Go
// runtime panic models an in-domain crash). It renders
// "domain panic: <value>" only when asked.
type panicError struct {
	value any
}

func (e *panicError) Error() string { return "domain panic: " + fmt.Sprint(e.value) }

// Config configures a System.
type Config struct {
	// Cost is the virtual cost model (DefaultCostModel if zero).
	Cost vclock.CostModel
	// IntegrityCheckOnExit runs a heap canary sweep when a domain exits
	// cleanly (default true; part of SDRaD's detection surface).
	IntegrityCheckOnExit bool
	// ZeroOnDiscard scrubs domain pages during rewind (default true;
	// turning it off is the "fast discard" ablation).
	ZeroOnDiscard bool
}

// DefaultConfig returns the default system configuration.
func DefaultConfig() Config {
	return Config{
		Cost:                 vclock.DefaultCostModel(),
		IntegrityCheckOnExit: true,
		ZeroOnDiscard:        true,
	}
}

// DomainConfig configures one domain.
type DomainConfig struct {
	// HeapPages is the initial heap size in pages (default 16).
	HeapPages int
	// MaxHeapPages bounds heap growth (default 1<<20).
	MaxHeapPages int
	// StackPages is the stack size in pages, excluding the guard page
	// (default 8).
	StackPages int
	// Secret seeds canaries (derived from the key if zero).
	Secret uint64
}

func (c *DomainConfig) fill() {
	if c.HeapPages <= 0 {
		c.HeapPages = 16
	}
	if c.MaxHeapPages <= 0 {
		c.MaxHeapPages = 1 << 20
	}
	if c.StackPages <= 0 {
		c.StackPages = 8
	}
}

// DomainStats tracks per-domain accounting.
type DomainStats struct {
	Entries    uint64
	CleanExits uint64
	Violations uint64
	Rewinds    uint64
	// Preemptions counts runs cancelled by an exhausted cycle budget
	// (rewound and discarded like violations, but not memory-safety
	// events: they do not count toward Violations or quarantine).
	Preemptions uint64
	rewindCycle uint64
}

// RewindCycles returns the cumulative virtual cycles spent rewinding.
func (st DomainStats) RewindCycles() uint64 { return st.rewindCycle }

// System is an SDRaD runtime instance bound to one simulated machine.
// Create with NewSystem. Not safe for concurrent use (single simulated
// hardware thread).
type System struct {
	cfg     Config
	clock   *vclock.Clock
	mem     *mem.Memory
	keys    pku.Allocator
	domains map[UDI]*Domain
	nextUDI UDI
	// active is the stack of currently-entered domains (innermost last).
	active   []*Domain
	rootKey  pku.Key
	counters detect.Counters
	tracer   trace.Recorder
	// pkru is the current simulated PKRU register value.
	pkru pku.PKRU
	// budgetLimit is the absolute virtual-cycle count at which the
	// current budgeted Enter preempts (0 = no budget in force). Nested
	// budgeted enters keep the tighter limit.
	budgetLimit uint64
	// trap holds the cause of the trap in flight (see trapSlot).
	trap trapSlot
}

// Domain is one isolated domain.
type Domain struct {
	udi   UDI
	key   pku.Key
	heap  *alloc.Heap
	stack *stack.Stack
	stats DomainStats
	sys   *System
	// pkru caches pkruFor(d) — the register value installed while d
	// executes. Recomputed whenever the domain's read grants change, so
	// Enter does not rebuild it per entry.
	pkru pku.PKRU
	// readKeys are foreign keys this domain may read (write-disabled),
	// installed by System.GrantRead.
	readKeys map[pku.Key]bool
	// maxViolations quarantines the domain once exceeded (0 = unlimited).
	maxViolations int
	// ctx is the view every entry hands to domain code. It is immutable
	// (the PKRU in force is read from the System), so one per domain
	// serves every entry, nested ones included.
	ctx DomainCtx
}

// NewSystem creates a fresh SDRaD runtime with its own simulated machine.
func NewSystem(cfg Config) *System {
	if cfg.Cost.CPUHz == 0 {
		def := DefaultConfig()
		if cfg.Cost == (vclock.CostModel{}) {
			cfg.Cost = def.Cost
		}
	}
	clk := vclock.New(cfg.Cost)
	s := &System{
		cfg:     cfg,
		clock:   clk,
		mem:     mem.New(clk),
		domains: make(map[UDI]*Domain),
		nextUDI: RootUDI + 1,
		pkru:    pku.PKRUAllowAll,
	}
	// The root domain's protected heap is tagged with a dedicated key
	// that no child domain's PKRU ever includes (child PKRUs carry key 0
	// for code/globals plus their own key). Adopted heaps and other
	// trusted state use this key, so a compromised domain cannot touch
	// them. Allocation cannot fail on a fresh allocator.
	rootKey, err := s.keys.Alloc()
	if err != nil {
		panic("sdrad: fresh key allocator exhausted: " + err.Error())
	}
	s.rootKey = rootKey
	return s
}

// Clock returns the system's virtual clock.
func (s *System) Clock() *vclock.Clock { return s.clock }

// Mem returns the simulated memory (root-privileged access).
func (s *System) Mem() *mem.Memory { return s.mem }

// Counters returns the detection counters.
func (s *System) Counters() *detect.Counters { return &s.counters }

// SetTracer installs a lifecycle-event recorder (nil disables tracing,
// the default).
func (s *System) SetTracer(r trace.Recorder) { s.tracer = r }

// tracing reports whether a tracer is installed. Call sites that build
// an event's detail with fmt check it first, so an untraced run formats
// nothing.
func (s *System) tracing() bool { return s.tracer != nil }

// emit records a lifecycle event if tracing is enabled.
func (s *System) emit(kind trace.Kind, udi UDI, detail string) {
	if s.tracer == nil {
		return
	}
	s.tracer.Record(trace.Event{At: s.clock.Now(), Kind: kind, UDI: int(udi), Detail: detail})
}

// InitDomain initializes a domain at an explicit UDI (sdrad_init analog):
// allocates a protection key and maps the domain's heap and stack.
func (s *System) InitDomain(udi UDI, cfg DomainConfig) (*Domain, error) {
	if udi == RootUDI {
		return nil, fmt.Errorf("%w: UDI 0 is the root domain", ErrDomainExists)
	}
	if _, ok := s.domains[udi]; ok {
		return nil, fmt.Errorf("%w: UDI %d", ErrDomainExists, udi)
	}
	cfg.fill()
	key, err := s.keys.Alloc()
	if err != nil {
		return nil, fmt.Errorf("sdrad: init domain %d: %w", udi, err)
	}
	s.clock.Advance(s.cfg.Cost.PkeyAlloc)
	h, err := alloc.New(s.mem, key, alloc.Config{
		InitialPages: cfg.HeapPages,
		MaxPages:     cfg.MaxHeapPages,
		Secret:       cfg.Secret,
	})
	if err != nil {
		_ = s.keys.Free(key) //lint:errclass best-effort unwind; the init failure is the error callers must see
		return nil, fmt.Errorf("sdrad: init domain %d heap: %w", udi, err)
	}
	st, err := stack.New(s.mem, key, cfg.StackPages, cfg.Secret)
	if err != nil {
		_ = h.Release()      //lint:errclass best-effort unwind; the init failure is the error callers must see
		_ = s.keys.Free(key) //lint:errclass best-effort unwind; the init failure is the error callers must see
		return nil, fmt.Errorf("sdrad: init domain %d stack: %w", udi, err)
	}
	d := &Domain{udi: udi, key: key, heap: h, stack: st, sys: s}
	d.ctx = DomainCtx{sys: s, d: d}
	d.pkru = pkruFor(d)
	s.domains[udi] = d
	if s.tracing() {
		s.emit(trace.KindInit, udi, fmt.Sprintf("key=%v", key))
	}
	if udi >= s.nextUDI {
		s.nextUDI = udi + 1
	}
	return d, nil
}

// CreateDomain initializes a domain at the next free UDI.
func (s *System) CreateDomain(cfg DomainConfig) (*Domain, error) {
	for {
		udi := s.nextUDI
		s.nextUDI++
		if _, ok := s.domains[udi]; !ok {
			return s.InitDomain(udi, cfg)
		}
	}
}

// Domain returns the domain at udi.
func (s *System) Domain(udi UDI) (*Domain, error) {
	d, ok := s.domains[udi]
	if !ok {
		return nil, fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	return d, nil
}

// Domains returns the number of initialized domains (excluding root).
func (s *System) Domains() int { return len(s.domains) }

// DeinitDomain tears down a domain (sdrad_deinit analog): releases its
// heap and stack pages and frees its protection key.
func (s *System) DeinitDomain(udi UDI) error {
	d, ok := s.domains[udi]
	if !ok {
		return fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	for _, a := range s.active {
		if a == d {
			return fmt.Errorf("%w: UDI %d", ErrDomainActive, udi)
		}
	}
	if err := d.heap.Release(); err != nil {
		return fmt.Errorf("sdrad: deinit %d: %w", udi, err)
	}
	if err := d.stack.Release(); err != nil {
		return fmt.Errorf("sdrad: deinit %d: %w", udi, err)
	}
	if err := s.keys.Free(d.key); err != nil {
		return fmt.Errorf("sdrad: deinit %d: %w", udi, err)
	}
	s.clock.Advance(s.cfg.Cost.PkeyFree)
	delete(s.domains, udi)
	s.emit(trace.KindDeinit, udi, "")
	return nil
}

// DiscardDomain resets domain udi's memory to a pristine state without
// tearing the domain down: the heap allocator is reset (and scrubbed when
// ZeroOnDiscard is on), while the domain's protection key, page mappings,
// and stack survive. This is the explicit-discard half of rewind-and-
// discard, used to recycle a warm domain between requests — far cheaper
// than DeinitDomain+InitDomain, which would also free and re-allocate the
// pkey and remap every page. The scrub's host cost is bounded by the
// pages the run actually dirtied (mem.Zero skips known-zero pages), so
// recycling a warm domain costs O(pages touched), not O(heap size) —
// virtual cycles are still charged for the full range.
func (s *System) DiscardDomain(udi UDI) error {
	d, ok := s.domains[udi]
	if !ok {
		return fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	for _, a := range s.active {
		if a == d {
			return fmt.Errorf("%w: UDI %d", ErrDomainActive, udi)
		}
	}
	var err error
	if s.cfg.ZeroOnDiscard {
		err = d.heap.Reset()
	} else {
		err = d.heap.ResetNoZero()
	}
	if err != nil {
		return fmt.Errorf("sdrad: discard domain %d: %w", udi, err)
	}
	s.emit(trace.KindDiscard, udi, "")
	return nil
}

// current returns the innermost active domain, or nil when executing in
// the root domain.
func (s *System) current() *Domain {
	if len(s.active) == 0 {
		return nil
	}
	return s.active[len(s.active)-1]
}

// pkruFor computes the PKRU value installed while d executes: full
// access to the domain's own key (plus key 0 for code/global access,
// which the simulated substrate does not use for any protected state),
// and read-only access to any keys shared via GrantRead.
func pkruFor(d *Domain) pku.PKRU {
	p := pku.OnlyKeys(pku.DefaultKey, d.key)
	//lint:detorder commutative bitmask union; iteration order cannot change the PKRU
	for k := range d.readKeys {
		p = p.WithAllowed(k).WithWriteDisabled(k)
	}
	return p
}

// Enter runs fn inside domain udi (sdrad_enter/sdrad_exit analog).
//
// On a clean return, the domain's heap passes an optional integrity sweep
// and its data persists for future entries. If a detector fires — a PKU
// domain violation, canary smash, guard-page hit, segfault, or a panic in
// fn — the domain is rewound: the stack is unwound to the entry point,
// the heap is discarded (reset and optionally zeroed), and Enter returns
// a *ViolationError. Application errors returned by fn pass through
// unchanged and do not rewind the domain.
func (s *System) Enter(udi UDI, fn func(*DomainCtx) error) error {
	return s.EnterWithBudget(udi, 0, fn)
}

// EnterWithBudget is Enter with a virtual-cycle budget: if the run
// consumes budget or more cycles, the next simulated-machine operation
// preempts it, the domain is rewound and discarded exactly as for a
// violation, and EnterWithBudget returns a *BudgetError. budget == 0
// means no budget. A nested budgeted enter inherits the outer limit when
// that is tighter.
func (s *System) EnterWithBudget(udi UDI, budget uint64, fn func(*DomainCtx) error) error {
	d, ok := s.domains[udi]
	if !ok {
		return fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	if d.quarantined() {
		return fmt.Errorf("%w: UDI %d after %d violations", ErrQuarantined, udi, d.stats.Violations)
	}

	entry := s.clock.Cycles()
	prevLimit := s.budgetLimit
	if budget > 0 {
		limit := entry + budget
		if limit < entry {
			// Saturate: a budget near 2^64 means "effectively unlimited",
			// not "wrapped below the clock and preempt immediately".
			limit = math.MaxUint64
		}
		if prevLimit == 0 || limit < prevLimit {
			s.budgetLimit = limit
		}
	}

	// Context snapshot (setjmp analog) + PKRU switch into the domain.
	s.clock.Advance(s.cfg.Cost.SnapshotCtx + s.cfg.Cost.WRPKRU)
	snap := d.stack.Snapshot()
	prevPKRU := s.pkru
	s.pkru = d.pkru
	s.active = append(s.active, d)
	d.stats.Entries++
	s.emit(trace.KindEnter, udi, "")

	err, trapped := s.runGuarded(&d.ctx, fn)

	// Leave the domain: restore the caller's PKRU and budget.
	s.active = s.active[:len(s.active)-1]
	s.pkru = prevPKRU
	limit := s.budgetLimit
	s.budgetLimit = prevLimit
	s.clock.Advance(s.cfg.Cost.WRPKRU)

	if err == nil && s.cfg.IntegrityCheckOnExit {
		if err = d.heap.CheckIntegrity(); err != nil {
			trapped = true
		}
	}

	if _, ok := err.(*budgetSignal); ok {
		// Used is captured before the rewind advances the clock, so it is
		// a deterministic function of the work the run performed.
		used := s.clock.Cycles() - entry
		if rerr := s.discardAndRewind(d, snap); rerr != nil {
			return rerr
		}
		d.stats.Preemptions++
		if s.tracing() {
			s.emit(trace.KindRewind, d.udi, fmt.Sprintf("budget=%d used=%d", limit-entry, used))
		}
		return &BudgetError{UDI: d.udi, Budget: limit - entry, Used: used, sys: s}
	}
	if trapped {
		return s.rewind(d, snap, err)
	}
	if err == nil {
		d.stats.CleanExits++
		s.emit(trace.KindExit, udi, "clean")
	}
	return err
}

// runGuarded executes fn. trapped reports that a detector fired — a
// trap, any other panic from domain code, or a returned error that is a
// memory-safety detection — and err is then its cause. A budget
// preemption returns a *budgetSignal, untrapped; anything else fn
// returns passes through untrapped.
func (s *System) runGuarded(ctx *DomainCtx, fn func(*DomainCtx) error) (err error, trapped bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if slot, ok := r.(*trapSlot); ok {
			err, slot.cause = slot.cause, nil
			trapped = true
			return
		}
		if _, ok := r.(budgetPanic); ok {
			err = &budgetSignal{}
			return
		}
		// A Go runtime panic in domain code models an in-domain crash
		// (e.g. a null dereference compiled into the component).
		err, trapped = &panicError{value: r}, true
	}()
	err = fn(ctx)
	return err, err != nil && detect.IsViolation(err)
}

// discardAndRewind performs the mechanical half of secure rewind and
// discard — signal delivery, stack unwind to the enter point, heap
// discard — shared by the violation and budget-preemption paths. It
// accounts the recovery in Rewinds/rewind cycles; the caller classifies
// the event.
func (s *System) discardAndRewind(d *Domain, snap stack.Snapshot) error {
	start := s.clock.Cycles()

	// Signal delivery + longjmp back to the enter point.
	s.clock.Advance(s.cfg.Cost.SignalDeliver + s.cfg.Cost.RestoreCtx + s.cfg.Cost.WRPKRU)
	if err := d.stack.Rewind(snap); err != nil {
		// Cannot happen for snapshots taken by Enter; fail loudly.
		return fmt.Errorf("sdrad: rewind of domain %d failed: %w", d.udi, err)
	}
	// Discard: reset the heap allocator. Zeroing is configurable (the
	// fast-discard ablation skips the scrub).
	if s.cfg.ZeroOnDiscard {
		if err := d.heap.Reset(); err != nil {
			return fmt.Errorf("sdrad: discard of domain %d failed: %w", d.udi, err)
		}
	} else {
		if err := d.heap.ResetNoZero(); err != nil {
			return fmt.Errorf("sdrad: discard of domain %d failed: %w", d.udi, err)
		}
	}
	d.stats.Rewinds++
	d.stats.rewindCycle += s.clock.Cycles() - start
	return nil
}

// rewind performs secure rewind and discard of domain d and returns the
// resulting *ViolationError.
func (s *System) rewind(d *Domain, snap stack.Snapshot, cause error) error {
	start := s.clock.Cycles()
	if err := s.discardAndRewind(d, snap); err != nil {
		return err
	}

	mech := detect.Classify(cause)
	if mech == detect.MechNone {
		// An in-domain panic or explicit Violate without a substrate
		// fault type: account it as a crash-class detection so every
		// rewind is counted.
		mech = detect.MechSegfault
	}
	s.counters.Add(mech)
	d.stats.Violations++
	s.emit(trace.KindViolation, d.udi, mech.String())
	if s.tracing() {
		s.emit(trace.KindRewind, d.udi, fmt.Sprintf("cycles=%d", s.clock.Cycles()-start))
	}

	return &ViolationError{UDI: d.udi, Mechanism: mech, Cause: cause, sys: s}
}

// RewindCycles returns the cumulative virtual cycles domain udi has
// spent in rewind-and-discard.
func (s *System) RewindCycles(udi UDI) (uint64, error) {
	d, ok := s.domains[udi]
	if !ok {
		return 0, fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	return d.stats.rewindCycle, nil
}

// Stats returns a copy of the domain's statistics.
func (d *Domain) Stats() DomainStats { return d.stats }

// UDI returns the domain's index.
func (d *Domain) UDI() UDI { return d.udi }

// Heap exposes the domain heap for root-privileged inspection.
func (d *Domain) Heap() *alloc.Heap { return d.heap }

// CopyFromDomain reads n bytes at addr with root privileges — how the
// trusted runtime extracts results from a domain after a clean exit.
func (s *System) CopyFromDomain(addr mem.Addr, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.mem.LoadBytes(pku.PKRUAllowAll, addr, buf); err != nil {
		return nil, fmt.Errorf("sdrad: copy from domain: %w", err)
	}
	return buf, nil
}

// CopyToDomain writes data at addr with root privileges — how the trusted
// runtime passes arguments into a domain.
func (s *System) CopyToDomain(addr mem.Addr, data []byte) error {
	if err := s.mem.StoreBytes(pku.PKRUAllowAll, addr, data); err != nil {
		return fmt.Errorf("sdrad: copy to domain: %w", err)
	}
	return nil
}
