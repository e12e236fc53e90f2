// Package detect classifies memory-error signals into the detection
// mechanisms SDRaD relies on.
//
// The paper (§II) requires "pre-existing detection mechanisms, such as
// stack canaries and domain violations" to trigger secure rewind. This
// package is the glue: it maps the error values produced by the substrate
// (mem faults, allocator canaries, stack canaries) onto a Mechanism enum
// and keeps per-mechanism counters that the experiment harness reports.
package detect

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stack"
)

// Mechanism identifies which detector fired.
type Mechanism uint8

// Detection mechanisms, in the order the paper discusses them.
const (
	// MechNone: the error was not a memory-safety detection.
	MechNone Mechanism = iota
	// MechDomainViolation: a PKU fault — an access crossed a domain
	// boundary (SEGV_PKUERR).
	MechDomainViolation
	// MechStackCanary: a smashed stack canary (__stack_chk_fail).
	MechStackCanary
	// MechHeapCanary: heap chunk canary/redzone mismatch.
	MechHeapCanary
	// MechGuardPage: access to a guard page (stack overflow) or other
	// page-protection violation (SEGV_ACCERR).
	MechGuardPage
	// MechSegfault: access to unmapped memory (SEGV_MAPERR), e.g. a null
	// or wild pointer dereference.
	MechSegfault
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none"
	case MechDomainViolation:
		return "domain-violation"
	case MechStackCanary:
		return "stack-canary"
	case MechHeapCanary:
		return "heap-canary"
	case MechGuardPage:
		return "guard-page"
	case MechSegfault:
		return "segfault"
	default:
		return fmt.Sprintf("Mechanism(%d)", uint8(m))
	}
}

// Classify maps an error from the substrate to the detection mechanism
// that produced it. MechNone means err is not a memory-safety signal.
func Classify(err error) Mechanism {
	if err == nil {
		return MechNone
	}
	if f, ok := mem.IsFault(err); ok {
		switch f.Kind {
		case mem.FaultPkey:
			return MechDomainViolation
		case mem.FaultProt:
			return MechGuardPage
		case mem.FaultUnmapped:
			return MechSegfault
		}
	}
	if errors.Is(err, stack.ErrStackSmash) {
		return MechStackCanary
	}
	if errors.Is(err, alloc.ErrHeapCorruption) {
		return MechHeapCanary
	}
	return MechNone
}

// IsViolation reports whether err is any memory-safety detection, i.e.
// an event that should trigger secure rewind of the faulting domain.
func IsViolation(err error) bool { return Classify(err) != MechNone }

// Counters tallies detections per mechanism. The zero value is ready to
// use. Not safe for concurrent use.
type Counters struct {
	counts [MechSegfault + 1]uint64
}

// Add increments the counter for an already-classified mechanism.
// MechNone is not counted.
func (c *Counters) Add(m Mechanism) {
	if m != MechNone && int(m) < len(c.counts) {
		c.counts[m]++
	}
}

// Count returns the number of detections recorded for mechanism m.
func (c *Counters) Count(m Mechanism) uint64 {
	if int(m) >= len(c.counts) {
		return 0
	}
	return c.counts[m]
}
