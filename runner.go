package sdrad

import (
	"context"
	"errors"
	"slices"

	"repro/internal/core"
	"repro/internal/serde"
	"repro/internal/vclock"
)

// This file is Execution API v2: the Runner interface unifies the three
// execution backends (Domain, Pool, Bridge) behind one cancellable,
// policy-carrying entry point, and RunOptions carry the paper's per-call
// policy — retries after rewind, the alternate action, worker affinity,
// and virtual-cycle budgets derived from context deadlines.

// Runner executes a function inside an isolated, rewindable domain. It is
// implemented by *Domain, *Pool, and *Bridge (via its backing domain), so
// policy-carrying call sites — and the typed Exec helper — work against
// any backend.
//
// Every implementation is deterministic on the simulated machine: the
// same sequence of Do calls with the same fns and options consumes the
// same virtual cycles and produces the same outcomes, on every run and
// at any GOMAXPROCS. The campaign engine's differential oracles
// (DESIGN.md §8) are built on this contract — wall-clock time may vary
// freely, virtual behavior may not.
type Runner interface {
	// Do executes fn inside a domain, applying the per-call policy in
	// opts. A memory-safety violation rewinds and discards the domain and
	// surfaces as a *ViolationError (after retries and the fallback, if
	// configured). A context deadline maps to a virtual-cycle budget: a
	// run that exhausts it is rewound the same way and surfaces as a
	// *BudgetError. A context cancelled before (or between) attempts
	// returns ctx.Err() without entering a domain.
	Do(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) error
}

// Interface compliance checks.
var (
	_ Runner = (*Domain)(nil)
	_ Runner = (*Pool)(nil)
	_ Runner = (*Bridge)(nil)
)

// BudgetError reports that a run exhausted its virtual-cycle budget
// (from WithCycleBudget or a context deadline) and was preempted: the
// domain was rewound and discarded exactly as after a violation, but the
// event is not a memory-safety detection.
type BudgetError = core.BudgetError

// IsBudget reports whether err is (or wraps) a *BudgetError.
func IsBudget(err error) (*BudgetError, bool) { return core.IsBudget(err) }

// RunOption configures one Do or Exec call.
type RunOption func(*runSettings)

// runTarget records which domain the last attempt of a Do call entered;
// Exec probes it to attribute violations (see withTargetProbe).
type runTarget struct {
	sys *core.System
	udi core.UDI
}

// runSettings is the resolved per-call policy.
type runSettings struct {
	fallback  func(*ViolationError) error
	retries   int
	worker    int
	hasWorker bool
	budget    uint64
	codecName string
	target    *runTarget
}

// withTargetProbe (internal) lets Exec learn which domain Do actually
// entered, so it can apply the fallback only to that domain's own
// violations.
func withTargetProbe(t *runTarget) RunOption {
	return func(s *runSettings) { s.target = t }
}

// applyRunOptions resolves opts. With none it returns at once: calling
// an option through &set moves set to the heap, and most calls carry no
// option.
func applyRunOptions(opts []RunOption) runSettings {
	if len(opts) == 0 {
		return runSettings{}
	}
	var set runSettings
	for _, o := range opts {
		o(&set)
	}
	return set
}

// WithFallback installs the paper's alternate action: if the run still
// ends in a violation of the entered domain after any retries, fallback
// is invoked with the *ViolationError (the domain has already been
// rewound and discarded) and its result becomes Do's result. A nested
// or foreign domain's *ViolationError returned by fn passes through as
// an ordinary error — the entered domain was not rewound.
func WithFallback(fallback func(*ViolationError) error) RunOption {
	return func(s *runSettings) { s.fallback = fallback }
}

// WithRetries re-enters the domain up to n more times after a rewind:
// each violation of the entered domain counts one retry, so a call makes
// at most n+1 attempts. Application errors (including foreign domains'
// rewind errors) and budget preemptions are not retried.
func WithRetries(n int) RunOption {
	return func(s *runSettings) {
		if n > 0 {
			s.retries = n
		}
	}
}

// WithWorker pins the call to pool worker i (modulo the pool size),
// replacing Pool.RunOn: all attempts — including retries — run on that
// worker, so related calls serialize on one simulated machine. Domain
// and Bridge runners, which have no workers, ignore it.
func WithWorker(i int) RunOption {
	return func(s *runSettings) {
		s.worker = i
		s.hasWorker = true
	}
}

// WithCycleBudget bounds the run to c virtual cycles: a run that
// consumes the budget is preempted at its next simulated-machine
// operation, rewound, and surfaces as a *BudgetError. When the context
// also carries a deadline, the tighter of the two budgets applies.
func WithCycleBudget(c uint64) RunOption {
	return func(s *runSettings) { s.budget = c }
}

// WithCodec selects the serde codec Exec transfers request and response
// values with: CodecRaw, CodecBinary (the default), or CodecJSON. Do
// ignores it (Do moves no data).
func WithCodec(name string) RunOption {
	return func(s *runSettings) { s.codecName = name }
}

// resolveCodec returns the codec Exec should use.
func (s *runSettings) resolveCodec() (serde.Codec, error) {
	if s.codecName == "" {
		return serde.Binary{}, nil
	}
	return serde.ByName(s.codecName)
}

// budgetFor computes the effective cycle budget for one attempt: the
// explicit WithCycleBudget value, tightened by the context deadline
// mapped through the cost model (vclock.CyclesUntilDeadline). 0 means no
// budget.
func (s *runSettings) budgetFor(ctx context.Context, hz uint64) uint64 {
	budget := s.budget
	if deadline, ok := ctx.Deadline(); ok {
		if db := vclock.CyclesUntilDeadline(deadline, hz); budget == 0 || db < budget {
			budget = db
		}
	}
	return budget
}

// runPolicy drives one Do call: attempt/retry/fallback around a backend-
// supplied attempt function. attempt receives the cycle budget for that
// attempt and returns the UDI of the domain it entered plus the outcome
// of that entry. Retries and the fallback apply only when the attempted
// domain itself was violated and rewound — a nested or foreign domain's
// *ViolationError propagating through fn is an application error here
// (the attempted domain was never rewound, so re-entering it would run
// against dirty state and the fallback's contract would be false).
func runPolicy(ctx context.Context, set runSettings, hz uint64, attempt func(budget uint64) (*core.System, core.UDI, error)) error {
	var lastViolation *ViolationError
	for tries := 0; ; tries++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sys, udi, err := attempt(set.budgetFor(ctx, hz))
		if set.target != nil {
			set.target.sys, set.target.udi = sys, udi
		}
		if errors.Is(err, core.ErrQuarantined) && lastViolation != nil {
			// A retry found the domain quarantined by the violation(s)
			// absorbed just above: the run's outcome IS the violation,
			// so the alternate action still applies.
			if set.fallback != nil {
				return set.fallback(lastViolation)
			}
			return err
		}
		v, isViolation := IsViolation(err)
		if !isViolation || !core.RewoundBy(err, sys, udi) {
			// Clean exit, application error (including foreign rewind
			// errors), or budget preemption: none of these retry, and
			// the fallback is own-violations-only.
			return err
		}
		lastViolation = v
		if tries < set.retries {
			continue
		}
		if set.fallback != nil {
			return set.fallback(v)
		}
		return err
	}
}

// Do implements Runner: it executes fn inside the domain under the given
// per-call policy. With no options and a background context it behaves
// exactly like Run. WithWorker is ignored (a Domain is one worker).
func (d *Domain) Do(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) error {
	return d.doSettings(ctx, applyRunOptions(opts), fn)
}

// doSettings is Do after option resolution — the serial path batch
// replays re-enter with a call's already-resolved policy.
func (d *Domain) doSettings(ctx context.Context, set runSettings, fn func(*Ctx) error) error {
	hz := d.sup.sys.Clock().Model().CPUHz
	return runPolicy(ctx, set, hz, func(budget uint64) (*core.System, core.UDI, error) {
		return d.sup.sys, d.udi, d.sup.sys.EnterWithBudget(d.udi, budget, fn)
	})
}

// BatchItem is one call of a heterogeneous batch: its own context (and
// therefore its own deadline-derived budget) and its own per-call
// options. A nil Ctx means context.Background().
type BatchItem struct {
	Ctx  context.Context
	Fn   func(*Ctx) error
	Opts []RunOption
}

func (it *BatchItem) toCall() batchCall {
	ctx := it.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return batchCall{ctx: ctx, fn: it.Fn, set: applyRunOptions(it.Opts)}
}

// DoBatch executes fns back to back inside one domain entry: one
// Enter/Exit, one exit-time integrity sweep. Results are positional:
// errs[i] is what Do(ctx, fns[i], opts...) would have returned. The
// calls share the entry, so call i+1 observes the heap state call i left
// behind (the domain's memory persists across DoBatch like it does
// across Do); if any call faults, the domain is rewound and every call
// re-derives its outcome through the serial path, which re-executes
// calls (the WithRetries at-least-once contract). See the replay rule in
// batch.go and DESIGN.md §9.
func (d *Domain) DoBatch(ctx context.Context, fns []func(*Ctx) error, opts ...RunOption) []error {
	items := make([]BatchItem, len(fns))
	for i, fn := range fns {
		items[i] = BatchItem{Ctx: ctx, Fn: fn, Opts: opts}
	}
	return d.DoBatchItems(items)
}

// DoBatchItems is DoBatch for heterogeneous batches: each item carries
// its own context and options, so calls with different deadlines or
// policies can still share one domain entry. Network servers batching
// concurrent connections use this form.
func (d *Domain) DoBatchItems(items []BatchItem) []error {
	return d.AppendBatchItems(make([]error, 0, len(items)), items)
}

// AppendBatchItems is DoBatchItems appending each item's result to errs
// and returning the extended slice. The batch's working slices are the
// domain's, reused from batch to batch, so a caller that reuses errs
// runs a batch without allocating. Like every run on the domain, it
// must not overlap another.
func (d *Domain) AppendBatchItems(errs []error, items []BatchItem) []error {
	b := d.batcher()
	b.slab = slices.Grow(b.slab[:0], len(items))[:len(items)]
	b.calls = slices.Grow(b.calls[:0], len(items))[:len(items)]
	for i := range items {
		b.slab[i] = items[i].toCall()
		b.calls[i] = &b.slab[i]
	}
	rep := b.run(b.calls)
	if d.onBatch != nil {
		d.onBatch(BatchReport{Size: len(items), Committed: rep.Committed, Replayed: rep.Replayed})
	}
	for _, c := range b.calls {
		errs = append(errs, c.err)
	}
	clear(b.slab) // hold no call's context, function or error
	return errs
}

// domainBatch is a Domain's batch engine, built on its first batch, and
// the call slab AppendBatchItems fills for each batch.
type domainBatch struct {
	batchBackend
	slab  []batchCall
	calls []*batchCall
}

// batcher returns the domain's batch engine, building it on first use.
func (d *Domain) batcher() *domainBatch {
	if d.batch == nil {
		d.batch = &domainBatch{batchBackend: batchBackend{
			hz:         d.sup.sys.Clock().Model().CPUHz,
			persistent: true,
			enter: func(budget uint64, fn func(*Ctx) error) error {
				return d.sup.sys.EnterWithBudget(d.udi, budget, fn)
			},
			discard: d.Discard,
			serial:  func(c *batchCall) error { return d.doSettings(c.ctx, c.set, c.fn) },
		}}
	}
	return d.batch
}

// Do implements Runner on the bridge's backing domain: fn runs isolated
// in the same domain Call uses, under the same per-call policy surface.
func (b *Bridge) Do(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) error {
	return b.d.Do(ctx, fn, opts...)
}
