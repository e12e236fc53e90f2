package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pku"
)

// DomainCtx is the view of the system that code executing inside a
// domain receives. All memory operations go through the domain's PKRU
// value, so touching memory owned by another domain (or the root) raises
// a domain violation.
//
// Two access styles are provided:
//
//   - The error-returning methods (Load, Store, ...) surface faults as
//     error values, for code that wants to inspect them.
//   - The Must* methods emulate the hardware trap: a fault immediately
//     unwinds execution to the Enter boundary (via an internal panic that
//     never escapes the package), exactly as a SIGSEGV would abort the
//     compartment in the C implementation. Application code after a
//     faulting Must* access never runs — matching real-machine semantics.
//
// Every operation additionally checks the run's virtual-cycle budget
// (EnterWithBudget): an exhausted budget preempts the run the same way a
// fault does, surfacing as a *BudgetError at the Enter boundary.
type DomainCtx struct {
	sys *System
	d   *Domain
}

// UDI returns the executing domain's index.
func (c *DomainCtx) UDI() UDI { return c.d.udi }

// Key returns the executing domain's protection key.
func (c *DomainCtx) Key() pku.Key { return c.d.key }

// pkru returns the PKRU register value currently installed on the
// simulated hardware thread. This is deliberately NOT pkruFor(c.d): the
// rights in force are per-thread register state, so a ctx captured from
// an outer domain and used while a nested domain executes accesses memory
// with the nested domain's rights — exactly as on real hardware.
func (c *DomainCtx) pkru() pku.PKRU { return c.sys.pkru }

// trap aborts the compartment with cause, unwinding to Enter (see
// trapSlot).
func (c *DomainCtx) trap(cause error) {
	c.sys.trap.cause = cause
	panic(&c.sys.trap)
}

// Violate explicitly raises a domain violation, unwinding to the Enter
// boundary. Domain code uses this when its own consistency checks fail.
func (c *DomainCtx) Violate(cause error) {
	if cause == nil {
		cause = fmt.Errorf("sdrad: explicit violation in domain %d", c.d.udi)
	}
	c.trap(cause)
}

// Alloc allocates n bytes on the domain heap.
func (c *DomainCtx) Alloc(n int) (mem.Addr, error) {
	c.preempt()
	return c.d.heap.Alloc(n)
}

// MustAlloc is Alloc with trap-on-failure semantics.
func (c *DomainCtx) MustAlloc(n int) mem.Addr {
	c.preempt()
	p, err := c.d.heap.Alloc(n)
	if err != nil {
		c.trap(err)
	}
	return p
}

// Free releases a domain heap allocation; a canary mismatch is returned
// as an error (and classified as a heap-canary detection by Enter if
// propagated).
func (c *DomainCtx) Free(p mem.Addr) error {
	c.preempt()
	return c.d.heap.Free(p)
}

// MustFree is Free with trap-on-failure semantics: a corrupted chunk
// aborts the compartment, like glibc's heap hardening calling abort().
func (c *DomainCtx) MustFree(p mem.Addr) {
	c.preempt()
	if err := c.d.heap.Free(p); err != nil {
		c.trap(err)
	}
}

// CheckHeap sweeps the domain heap's canaries.
func (c *DomainCtx) CheckHeap() error {
	c.preempt()
	return c.d.heap.CheckIntegrity()
}

// Load copies len(dst) bytes from addr under the domain's PKRU.
func (c *DomainCtx) Load(addr mem.Addr, dst []byte) error {
	c.preempt()
	return c.sys.mem.LoadBytes(c.pkru(), addr, dst)
}

// Store copies src to addr under the domain's PKRU.
func (c *DomainCtx) Store(addr mem.Addr, src []byte) error {
	c.preempt()
	return c.sys.mem.StoreBytes(c.pkru(), addr, src)
}

// MustLoad is Load with trap-on-fault semantics.
func (c *DomainCtx) MustLoad(addr mem.Addr, dst []byte) {
	if err := c.Load(addr, dst); err != nil {
		c.trap(err)
	}
}

// MustStore is Store with trap-on-fault semantics.
func (c *DomainCtx) MustStore(addr mem.Addr, src []byte) {
	if err := c.Store(addr, src); err != nil {
		c.trap(err)
	}
}

// Load64 loads a little-endian uint64.
func (c *DomainCtx) Load64(addr mem.Addr) (uint64, error) {
	c.preempt()
	return c.sys.mem.Load64(c.pkru(), addr)
}

// Store64 stores a little-endian uint64.
func (c *DomainCtx) Store64(addr mem.Addr, v uint64) error {
	c.preempt()
	return c.sys.mem.Store64(c.pkru(), addr, v)
}

// MustLoad64 is Load64 with trap-on-fault semantics.
func (c *DomainCtx) MustLoad64(addr mem.Addr) uint64 {
	v, err := c.Load64(addr)
	if err != nil {
		c.trap(err)
	}
	return v
}

// MustStore64 is Store64 with trap-on-fault semantics.
func (c *DomainCtx) MustStore64(addr mem.Addr, v uint64) {
	if err := c.Store64(addr, v); err != nil {
		c.trap(err)
	}
}

// WithFrame pushes a canaried stack frame of size bytes, runs fn with the
// frame, and pops it, validating the canary. A smashed canary aborts the
// compartment (the __stack_chk_fail path).
func (c *DomainCtx) WithFrame(size int, fn func(base mem.Addr) error) error {
	c.preempt()
	fr, err := c.d.stack.Push(size)
	if err != nil {
		return err
	}
	if err := fn(fr.Base); err != nil {
		// Application error: still validate + pop the frame.
		if perr := c.d.stack.Pop(fr); perr != nil {
			c.trap(perr)
		}
		return err
	}
	if err := c.d.stack.Pop(fr); err != nil {
		c.trap(err)
	}
	return nil
}

// StackRemaining returns the bytes left on the domain stack.
func (c *DomainCtx) StackRemaining() int { return c.d.stack.Remaining() }

// Enter runs fn in a nested domain. The nested domain's violations are
// contained: they rewind only the nested domain, and the error is
// delivered here, where this domain can take an alternate action.
func (c *DomainCtx) Enter(udi UDI, fn func(*DomainCtx) error) error {
	c.preempt()
	return c.sys.Enter(udi, fn)
}
