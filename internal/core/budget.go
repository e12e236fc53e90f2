package core

import (
	"fmt"

	"repro/internal/errtype"
)

// This file implements virtual-cycle budgets: a deterministic preemption
// mechanism for domain runs. A caller-supplied cycle budget (typically
// derived from a context deadline via vclock.CyclesUntilDeadline) bounds
// how many virtual cycles a single Enter may consume; when the budget is
// exhausted, the next simulated-machine operation traps, the domain is
// rewound and discarded exactly as for a memory-safety violation, and
// Enter returns a *BudgetError. Because the trigger is virtual time — not
// a wall-clock timer — a runaway run is cancelled at the same virtual
// cycle on every execution.

// BudgetError reports that a domain run exhausted its virtual-cycle
// budget and was preempted: the domain has been rewound and discarded,
// exactly as after a violation, but the event is not a memory-safety
// detection — it has its own type so callers can tell "the code was
// malicious/buggy" from "the code was slow".
type BudgetError struct {
	// UDI identifies the preempted domain.
	UDI UDI
	// Budget is the cycle budget that applied to the run — for a nested
	// enter that inherited a tighter outer limit, the effective
	// (inherited) budget, not the one the nested call requested.
	Budget uint64
	// Used is the number of virtual cycles the run had consumed when it
	// was preempted (Used >= Budget, measured at the trapping operation).
	Used uint64
	// sys identifies the System whose domain was rewound (see
	// ViolationError.sys).
	sys *System
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("sdrad: domain %d preempted: cycle budget %d exhausted (used %d)", e.UDI, e.Budget, e.Used)
}

// IsBudget reports whether err is (or wraps) a *BudgetError, returning it.
func IsBudget(err error) (*BudgetError, bool) {
	return errtype.As[*BudgetError](err)
}

// RewoundBy reports whether err records a rewind-and-discard of domain
// udi of system s specifically — a *ViolationError or *BudgetError
// raised for that exact domain. Callers holding resources in a domain
// use it to decide whether a run's error means "this domain was already
// discarded": a nested or foreign domain's rewind error propagating
// through an outer run does not rewind the outer domain, and because
// UDIs are only unique per System, the system identity is part of the
// check (two Supervisors both have a domain 1).
func RewoundBy(err error, s *System, udi UDI) bool {
	if s == nil {
		return false
	}
	if v, ok := IsViolation(err); ok && v.sys == s && v.UDI == udi {
		return true
	}
	if b, ok := IsBudget(err); ok && b.sys == s && b.UDI == udi {
		return true
	}
	return false
}

// budgetPanic unwinds execution from a preempted simulated-machine
// operation to the Enter boundary, emulating a preemption interrupt. It
// is recovered in runGuarded and never escapes the package.
type budgetPanic struct{}

// budgetSignal is the internal marker distinguishing "the budget timer
// fired" from application errors and violation signals on the way out of
// runGuarded.
type budgetSignal struct{}

func (*budgetSignal) Error() string { return "sdrad: cycle budget exhausted" }

// preempt traps when the current run's virtual-cycle budget is
// exhausted. It is checked at the start of every DomainCtx operation —
// the points where the simulated machine executes — so preemption is a
// deterministic function of the work performed, not of host timing.
// Domain code that performs no simulated-machine operations cannot be
// preempted, just as a loop that never yields cannot take an interrupt
// on a machine with interrupts masked.
func (c *DomainCtx) preempt() {
	if limit := c.sys.budgetLimit; limit != 0 && c.sys.clock.Cycles() >= limit {
		panic(budgetPanic{})
	}
}
