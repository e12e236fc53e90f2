// Package core implements Secure Domain Rewind and Discard (SDRaD) — the
// primary contribution of the reproduced paper.
//
// SDRaD compartmentalizes an application into isolated domains using
// hardware-assisted in-process isolation (Intel PKU). Each domain owns a
// private heap and stack tagged with a dedicated protection key; while a
// domain executes, the PKRU register grants access to that domain's key
// only, so a memory defect inside the domain can only corrupt the
// domain's own memory. When a pre-existing detection mechanism fires
// (domain violation, stack canary, heap canary, guard page, segfault),
// SDRaD *rewinds*: execution returns to the point where the domain was
// entered, and the domain's memory is *discarded* — reset to a pristine
// state — so the application continues running with corruption-free
// memory instead of being terminated.
//
// This package runs against the simulated machine substrate (internal/mem,
// internal/pku, internal/vclock); see DESIGN.md §2 for the substitution
// rationale. The public Go API for applications is the root package
// (sdrad); this package is the mechanism.
//
// # Invariants
//
//   - Single simulated hardware thread: a System and everything created
//     from it must be confined to one goroutine at a time (pools give
//     each worker its own System).
//   - Rewind-and-discard is total: after a *ViolationError or
//     *BudgetError for a domain, its stack is unwound to the Enter
//     point and its heap is pristine (scrubbed unless ZeroOnDiscard is
//     off). No partial state survives a detection.
//   - Determinism: given the same sequence of operations, virtual
//     cycles, detection outcomes, and rewinds are identical on every
//     run and at any GOMAXPROCS — the property the campaign oracles
//     (DESIGN.md §8) and budget preemption (deadlines map to cycle
//     budgets, not wall-clock timers) are built on.
//   - Violations never escape as panics: a trap stores its cause in the
//     System's trap slot and unwinds with a pointer to that slot (a
//     budget preemption unwinds with budgetPanic); both are recovered at
//     the Enter boundary and surface as typed errors. The slot is emptied
//     on recovery, so each rewind carries its own trap's cause.
//
// See DESIGN.md §2 for the simulated-machine substitution argument and
// §9 for how batched execution shares one Enter across many calls.
package core
