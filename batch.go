package sdrad

import (
	"context"

	"repro/internal/detect"
)

// This file implements batched domain execution: many calls amortize one
// domain Enter/Exit, one exit-time heap-integrity sweep, and one
// discard decision, instead of paying the full toll per call. It is the
// execution engine under Domain.DoBatch, Pool.DoBatch, AsyncPool, the
// batched network servers, and the campaign engine's batched backend.
//
// # The replay rule
//
// A batch is executed optimistically: one Enter runs the calls back to
// back, and if every call returns nil and the exit sweep passes, all of
// them commit with the amortized cost. Any deviation falls back to
// serial execution, which is the ground truth:
//
//   - An application error from call i exits the batch early. The sweep
//     still runs; if it passes, calls 0..i-1 commit (the heap is proven
//     corruption-free, so their clean results are the serial results).
//     On pool backends — pristine domain per call — calls i.. are
//     replayed individually, because the error might have been
//     batch-induced (e.g. heap pressure) and call i's first effects are
//     discarded anyway. On persistent (Domain) backends call i already
//     ran once against exactly its serial heap state, so its error
//     commits as-is (replaying would double-apply its in-domain
//     effects) and only the skipped calls i+1.. replay.
//
//   - A detection — violation, in-batch trap, exit-sweep failure, or
//     budget preemption — rewinds and discards the domain, and the
//     ENTIRE batch is replayed individually. Attribution inside an
//     aborted batch is unreliable (a call can smash a canary and return
//     cleanly, with the evidence surfacing only at the shared sweep), so
//     nothing from the aborted attempt is kept; every call's outcome,
//     including retries and fallbacks from its own policy options, comes
//     from its serial replay.
//
// Together with the allocator's reuse-time validation of freed chunks
// (internal/alloc, the tcache-key check) this makes a clean batch commit
// trustworthy: corruption cannot be overwritten unnoticed before the
// shared sweep, so "sweep passed" means "no detector would have fired
// serially either". DESIGN.md §9 develops the full argument.
//
// # Contract for batched calls
//
// Calls in one batch share one domain entry, so call i+1 observes the
// heap state call i left behind (allocations, addresses); calls must not
// depend on starting from a pristine heap beyond what the Runner
// determinism contract already demands. A call that participates in an
// aborted batch is re-executed — the same at-least-once contract that
// WithRetries imposes — so host-side effects of batched calls must
// tolerate re-execution.

// batchCall is one call of a batch: the submitter's context, function,
// resolved per-call policy, and (after execution) its outcome.
type batchCall struct {
	ctx context.Context
	fn  func(*Ctx) error
	set runSettings
	err error
}

// batchBackend binds the batch engine to one warm domain on one
// simulated machine. The caller must hold whatever lock confines that
// machine for the whole batch (including replays).
type batchBackend struct {
	// hz converts context deadlines to cycle budgets.
	hz uint64
	// persistent marks Domain-style backends whose heap survives clean
	// exits; pool-style backends discard after a committed batch, the
	// one discard decision the batch amortizes.
	persistent bool
	// enter runs fn inside the domain with a cycle budget (0 = none).
	enter func(budget uint64, fn func(*Ctx) error) error
	// discard scrubs the domain back to pristine (pool backends).
	discard func() error
	// serial executes one call through the backend's full serial path —
	// per-call budget, retries, fallback — on the same worker.
	serial func(c *batchCall) error

	// run's working state: the calls that enter the domain, and where
	// and how the in-domain loop stopped early. body is that loop
	// (inDomain), bound once. A backend kept from batch to batch — a
	// Domain keeps one — therefore runs a batch without allocating.
	live   []*batchCall
	appIdx int
	appErr error
	body   func(*Ctx) error
}

// batchReport describes how a batch resolved, for metrics.
type batchReport struct {
	// Committed reports that the optimistic pass stood: every call
	// resolved from the single shared entry.
	Committed bool
	// Replayed is the number of calls that fell back to serial
	// execution.
	Replayed int
}

// BatchReport is the public view of one batch resolution, delivered to
// Domain.OnBatch observers. It is the commit hook durability layers key
// on: a Committed report means the batch's clean results stand exactly
// as the shared entry produced them (the exit sweep passed), while a
// non-committed report means a detection or application error degraded
// part or all of the batch to serial replay — for a write-ahead log,
// the moment to decide which acknowledged effects are part of the
// committed history.
type BatchReport struct {
	// Size is the number of calls submitted in the batch.
	Size int
	// Committed reports a fully clean optimistic pass.
	Committed bool
	// Replayed is the number of calls that re-derived their outcome
	// through the serial path.
	Replayed int
}

// minBudget returns the tightest per-call cycle budget across the batch
// (0 = no call carries one). The batch budget under-approximates: it
// starts at batch entry rather than at the budgeted call's own start, so
// it can only preempt earlier than serial execution would — and a
// preempted batch is replayed serially, where each call gets its exact
// own budget. Safety, not attribution, is the point.
func minBudget(calls []*batchCall, hz uint64) uint64 {
	var budget uint64
	for _, c := range calls {
		if b := c.set.budgetFor(c.ctx, hz); b > 0 && (budget == 0 || b < budget) {
			budget = b
		}
	}
	return budget
}

// run executes calls as one batch under the replay rule above, filling
// each call's err.
func (b *batchBackend) run(calls []*batchCall) batchReport {
	// Calls whose context is already done never enter a domain, exactly
	// like the serial path's pre-attempt check.
	live := b.live[:0]
	for _, c := range calls {
		if err := c.ctx.Err(); err != nil {
			c.err = err
			continue
		}
		live = append(live, c)
	}
	b.live = live
	if len(live) == 0 {
		return batchReport{Committed: true}
	}
	if len(live) == 1 {
		// No amortization possible; take the serial path directly.
		live[0].err = b.serial(live[0])
		return batchReport{Replayed: 1}
	}

	if b.body == nil {
		b.body = b.inDomain
	}
	b.appIdx, b.appErr = -1, nil
	enterErr := b.enter(minBudget(live, b.hz), b.body)
	appIdx, appErr := b.appIdx, b.appErr
	b.appErr = nil

	if enterErr != nil {
		// A detection aborted the batch (or the enter itself was
		// refused, e.g. quarantine). The domain — if it was entered — has
		// been rewound and discarded; nothing from the attempt is
		// trustworthy, so every call re-derives its outcome serially.
		for _, c := range live {
			c.err = b.serial(c)
		}
		return batchReport{Replayed: len(live)}
	}

	// Clean exit: the sweep passed, so the heap is corruption-free and
	// the clean prefix commits.
	n := len(live)
	if appIdx >= 0 {
		n = appIdx
	}
	for _, c := range live[:n] {
		c.err = nil
	}
	if b.persistent {
		// Persistent (Domain) semantics: the erroring call already ran
		// exactly once against exactly the heap state serial execution
		// would have given it, so its own error IS its result — replaying
		// it would double-apply its in-domain effects. Only the calls the
		// early exit skipped re-derive serially.
		if appIdx < 0 {
			return batchReport{Committed: true}
		}
		live[appIdx].err = appErr
		for _, c := range live[appIdx+1:] {
			c.err = b.serial(c)
		}
		return batchReport{Committed: false, Replayed: len(live) - appIdx - 1}
	}
	// The batch's single discard decision: scrub once for the whole
	// entry (pool semantics scrub after every serial call). A discard
	// failure is an infrastructure error: the committed prefix genuinely
	// ran, so the failure lands on the calls that still have no result —
	// or on the last call when everything committed.
	if derr := b.discard(); derr != nil {
		if n == len(live) {
			live[n-1].err = derr
		}
		for _, c := range live[n:] {
			c.err = derr
		}
		return batchReport{Replayed: 0}
	}
	if appIdx < 0 {
		return batchReport{Committed: true}
	}
	// Pool semantics give every call a pristine domain, so the erroring
	// call re-derives serially too (its error might be batch-induced).
	for _, c := range live[appIdx:] {
		c.err = b.serial(c)
	}
	return batchReport{Committed: false, Replayed: len(live) - appIdx}
}

// inDomain is the batch's single domain entry: it runs the live calls
// back to back and stops at the first error, recording where (appIdx)
// and, for an application error, what (appErr).
func (b *batchBackend) inDomain(c *Ctx) error {
	for i, call := range b.live {
		if err := call.fn(c); err != nil {
			b.appIdx = i
			if detect.IsViolation(err) {
				// A substrate fault propagated as a return value: hand
				// it to Enter, which classifies and rewinds exactly as
				// the serial path would (runGuarded's conversion).
				return err
			}
			b.appErr = err
			return nil // exit the batch early; the sweep still runs
		}
	}
	return nil
}
