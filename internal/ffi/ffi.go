// Package ffi implements SDRaD-FFI (§III of the paper): calling "foreign"
// (memory-unsafe) functions inside isolated, rewindable domains, with
// serialized argument passing and alternate actions on violation.
//
// The Rust prototype the paper describes wraps annotated functions so
// that: (1) arguments are serialized with a serde crate and copied into
// the target domain's heap, (2) the function runs inside the domain with
// only that domain's protection key enabled, (3) results are serialized
// back out, and (4) on a memory violation the domain is rewound and a
// caller-supplied alternate action produces a fallback result. The Bridge
// type reproduces that pipeline on top of internal/core, with the codec
// choice pluggable (internal/serde) so experiment E8 can sweep it. Here
// "foreign code" is Go code that manipulates raw simulated memory through
// a *core.DomainCtx — the same trust model as C behind Rust FFI: it can
// scribble anywhere its protection key allows.
package ffi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/serde"
	"repro/internal/vclock"
)

// Sentinel errors.
var (
	// ErrUnknownFunc is returned when calling an unregistered function.
	ErrUnknownFunc = errors.New("ffi: unknown foreign function")
	// ErrNoResult is returned when the foreign function did not produce a
	// result.
	ErrNoResult = errors.New("ffi: foreign function set no result")
)

// Func is a foreign function. It receives the decoded argument vector and
// a domain context for raw ("unsafe") memory work, and returns a result
// vector. Anything it does to memory is confined to the domain; a fault,
// canary smash, or panic rewinds the domain and surfaces at Call.
type Func func(c *core.DomainCtx, args []any) ([]any, error)

// Fallback is an alternate action invoked when the foreign function's
// domain suffers a violation. It receives the original arguments and the
// violation and produces substitute results (or an error to propagate).
type Fallback func(args []any, viol *core.ViolationError) ([]any, error)

// Registration describes a wrapped foreign function.
type Registration struct {
	// Name is the call identifier.
	Name string
	// Fn is the foreign implementation.
	Fn Func
	// Fallback, if non-nil, is the alternate action on violation.
	Fallback Fallback
}

// Bridge connects a trusted caller to foreign functions running inside a
// dedicated SDRaD domain. Create with NewBridge. Not safe for concurrent
// use.
type Bridge struct {
	sys   *core.System
	udi   core.UDI
	codec serde.Codec
	funcs map[string]Registration

	// stats
	calls      uint64
	violations uint64
	fallbacks  uint64
	bytesIn    uint64
	bytesOut   uint64
}

// NewBridge creates a bridge that runs foreign functions in domain udi
// (which must already be initialized) using the given codec.
func NewBridge(sys *core.System, udi core.UDI, codec serde.Codec) (*Bridge, error) {
	if _, err := sys.Domain(udi); err != nil {
		return nil, fmt.Errorf("ffi: %w", err)
	}
	if codec == nil {
		codec = serde.Binary{}
	}
	return &Bridge{
		sys:   sys,
		udi:   udi,
		codec: codec,
		funcs: make(map[string]Registration),
	}, nil
}

// Register wraps a foreign function; it replaces any previous
// registration with the same name. This is the analogue of annotating a
// Rust function with the SDRaD-FFI macro.
func (b *Bridge) Register(reg Registration) error {
	if reg.Name == "" || reg.Fn == nil {
		return fmt.Errorf("ffi: registration needs a name and a function")
	}
	b.funcs[reg.Name] = reg
	return nil
}

// Stats reports bridge accounting.
type Stats struct {
	Calls      uint64
	Violations uint64
	Fallbacks  uint64
	BytesIn    uint64
	BytesOut   uint64
}

// Stats returns a snapshot of bridge accounting.
func (b *Bridge) Stats() Stats {
	return Stats{
		Calls:      b.calls,
		Violations: b.violations,
		Fallbacks:  b.fallbacks,
		BytesIn:    b.bytesIn,
		BytesOut:   b.bytesOut,
	}
}

// Call invokes the named foreign function with args. It is CallContext
// with a background context.
func (b *Bridge) Call(name string, args ...any) ([]any, error) {
	return b.CallContext(context.Background(), name, args...)
}

// CallContext invokes the named foreign function with args.
//
// The full SDRaD-FFI pipeline runs: args are encoded with the codec and
// copied into the foreign domain's heap; the domain is entered; inside,
// the bytes are loaded and decoded, the function runs, and its results
// are encoded into a fresh domain allocation; after a clean exit the
// trusted side copies the result bytes out and decodes them. On a domain
// violation the domain has been rewound and discarded; if the function
// has a Fallback it supplies substitute results, otherwise the
// *core.ViolationError is returned.
//
// A ctx deadline maps to a virtual-cycle budget for the foreign run: an
// exhausted budget rewinds and discards the domain the same way and
// returns a *core.BudgetError (the Fallback does not apply — the foreign
// code was slow, not faulty). A ctx cancelled before entry returns
// ctx.Err().
func (b *Bridge) CallContext(ctx context.Context, name string, args ...any) ([]any, error) {
	reg, ok := b.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFunc, name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.calls++

	enc, err := b.codec.Encode(args)
	if err != nil {
		return nil, fmt.Errorf("ffi: encode args for %q: %w", name, err)
	}
	b.bytesIn += uint64(len(enc))

	d, err := b.sys.Domain(b.udi)
	if err != nil {
		return nil, fmt.Errorf("ffi: %w", err)
	}
	// Trusted side allocates the in-buffer in the target domain's heap
	// and copies the serialized arguments in (sdrad_malloc + memcpy).
	inAddr, err := d.Heap().Alloc(len(enc) + 1)
	if err != nil {
		return nil, fmt.Errorf("ffi: allocate in-buffer: %w", err)
	}
	if err := b.sys.CopyToDomain(inAddr, enc); err != nil {
		return nil, fmt.Errorf("ffi: copy-in: %w", err)
	}

	var budget uint64
	if deadline, ok := ctx.Deadline(); ok {
		budget = vclock.CyclesUntilDeadline(deadline, b.sys.Clock().Model().CPUHz)
	}

	var outAddr mem.Addr
	var outLen int
	callErr := b.sys.EnterWithBudget(b.udi, budget, func(c *core.DomainCtx) error {
		// Inside the domain: load + decode the arguments.
		raw := make([]byte, len(enc))
		c.MustLoad(inAddr, raw)
		decoded, err := b.codec.Decode(raw)
		if err != nil {
			return fmt.Errorf("ffi: decode inside domain: %w", err)
		}
		results, err := reg.Fn(c, decoded)
		if err != nil {
			return err
		}
		// Encode results into a fresh domain allocation for copy-out.
		renc, err := b.codec.Encode(results)
		if err != nil {
			return fmt.Errorf("ffi: encode results: %w", err)
		}
		if len(renc) == 0 {
			renc = []byte{0}
		}
		p := c.MustAlloc(len(renc))
		c.MustStore(p, renc)
		outAddr, outLen = p, len(renc)
		return nil
	})

	// If the bridge domain itself was rewound — by a violation or a
	// budget preemption — the discard already released every domain
	// allocation, including the in-buffer; on all other paths (clean
	// exit, application errors, a *nested* domain's rewind propagating
	// through) the trusted side frees it (sdrad_free).
	if !core.RewoundBy(callErr, b.sys, b.udi) {
		if err := d.Heap().Free(inAddr); err != nil {
			return nil, fmt.Errorf("ffi: free in-buffer: %w", err)
		}
	}

	if viol, isViol := core.IsViolation(callErr); isViol {
		b.violations++
		if reg.Fallback != nil {
			b.fallbacks++
			res, ferr := reg.Fallback(args, viol)
			if ferr != nil {
				return nil, fmt.Errorf("ffi: fallback for %q: %w", name, ferr)
			}
			return res, nil
		}
		return nil, viol
	}
	if callErr != nil {
		return nil, callErr
	}
	if outAddr == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNoResult, name)
	}

	// Trusted side copies the result out, frees the domain-side buffer,
	// and decodes.
	renc, err := b.sys.CopyFromDomain(outAddr, outLen)
	if err != nil {
		return nil, fmt.Errorf("ffi: copy-out: %w", err)
	}
	if err := d.Heap().Free(outAddr); err != nil {
		return nil, fmt.Errorf("ffi: free out-buffer: %w", err)
	}
	b.bytesOut += uint64(len(renc))
	results, err := b.codec.Decode(renc)
	if err != nil {
		return nil, fmt.Errorf("ffi: decode results of %q: %w", name, err)
	}
	return results, nil
}
