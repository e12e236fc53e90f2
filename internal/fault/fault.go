// Package fault injects the memory-corruption bug classes the paper's
// threat model covers into running domains: linear heap overflows, stack
// smashes, wild writes, out-of-bounds reads, cross-domain accesses, and
// invalid frees.
//
// The injectors are the reproduction's stand-in for real CVEs in
// Memcached/NGINX/OpenSSL: each performs, through a *core.DomainCtx, the
// exact memory access pattern of its bug class, so the detection and
// rewind machinery is exercised end to end. Campaigns drive deterministic
// sequences of attacks for the containment experiment (E4).
package fault

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
)

// Kind identifies a bug class.
type Kind uint8

// Bug classes.
const (
	// HeapOverflow writes past the end of a heap allocation (detected by
	// the chunk redzone at free/exit).
	HeapOverflow Kind = iota + 1
	// StackSmash overflows a stack buffer into the frame canary.
	StackSmash
	// WildWrite stores through a corrupted pointer to an unmapped
	// address.
	WildWrite
	// OOBRead reads far past an allocation (Heartbleed-style).
	OOBRead
	// CrossDomainWrite attempts to write memory of another domain
	// (detected immediately by PKU).
	CrossDomainWrite
	// DoubleFree frees an allocation twice.
	DoubleFree
	// NullDeref dereferences address zero.
	NullDeref
	// UseAfterFree writes through a dangling pointer into a freed chunk,
	// running over its redzone (detected by the exit integrity sweep).
	UseAfterFree
	// FreedHeaderSmash overwrites the freed-marker canary word of a freed
	// chunk's header — the tcache-poisoning shape (detected by the exit
	// integrity sweep).
	FreedHeaderSmash
	// Crash panics inside the domain, modelling an in-domain process
	// crash (e.g. a compiled-in abort); the supervisor converts it to a
	// contained violation.
	Crash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case HeapOverflow:
		return "heap-overflow"
	case StackSmash:
		return "stack-smash"
	case WildWrite:
		return "wild-write"
	case OOBRead:
		return "oob-read"
	case CrossDomainWrite:
		return "cross-domain-write"
	case DoubleFree:
		return "double-free"
	case NullDeref:
		return "null-deref"
	case UseAfterFree:
		return "use-after-free"
	case FreedHeaderSmash:
		return "freed-header-smash"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrInjected tags the synthetic condition that triggered an injection
// (for injections that surface through explicit checks rather than
// hardware faults).
var ErrInjected = errors.New("fault: injected memory error")

// Inject performs the bug class inside the current domain. For fault-
// based classes it does not return: execution unwinds to the domain
// boundary. Heap-overflow and double-free style bugs may return normally
// and be caught later (at free or at the exit integrity sweep) —
// matching how such bugs behave on real hardware.
//
// victim is used by CrossDomainWrite as the foreign address to attack;
// pass 0 to attack a plausible foreign address.
func Inject(c *core.DomainCtx, kind Kind, victim mem.Addr) {
	switch kind {
	case HeapOverflow:
		p := c.MustAlloc(32)
		evil := make([]byte, 32+16) // runs 16 bytes into the redzone
		for i := range evil {
			evil[i] = 0x41
		}
		c.MustStore(p, evil)
	case StackSmash:
		// WithFrame validates the canary on pop and traps; the injected
		// store overruns a 64-byte local buffer.
		//lint:errclass the injected smash must trap inside WithFrame; the violation surfaces via the enclosing Enter, not this return
		_ = c.WithFrame(64, func(base mem.Addr) error {
			c.MustStore(base, make([]byte, 64+8))
			return nil
		})
	case WildWrite:
		c.MustStore64(0xdead_beef_000, 0x41414141)
	case OOBRead:
		p := c.MustAlloc(64)
		// Read 64 KiB from a 64-byte buffer: the classic Heartbleed
		// shape. The read runs off the domain heap into unmapped or
		// foreign pages and faults.
		buf := make([]byte, 64*1024)
		c.MustLoad(p, buf)
	case CrossDomainWrite:
		if victim == 0 {
			// Without a concrete victim the attack degenerates to a wild
			// write into unmapped space.
			victim = 0xbad_d0d0_000
		}
		c.MustStore64(victim, 0x41414141)
	case DoubleFree:
		// The second free hits the freed marker: the allocator refuses
		// it (ErrBadFree), and MustFree aborts the compartment as
		// glibc's double-free check aborts the process.
		p := c.MustAlloc(16)
		c.MustFree(p)
		c.MustFree(p)
	case NullDeref:
		c.MustStore64(0, 1)
	case UseAfterFree:
		// Free an allocation, then store through the dangling pointer.
		// The write stays inside the domain's own pages (no PKU fault)
		// but clobbers the freed chunk's redzone, which the exit
		// integrity sweep validates against the live canary.
		p := c.MustAlloc(64)
		c.MustFree(p)
		stale := make([]byte, 64+8)
		for i := range stale {
			stale[i] = 0x55
		}
		c.MustStore(p, stale)
	case FreedHeaderSmash:
		// Overwrite the freed-marker canary word sitting 8 bytes before
		// the payload — the tcache-poisoning / freelist-hijack shape. The
		// sweep sees neither the live canary nor the freed marker.
		p := c.MustAlloc(32)
		c.MustFree(p)
		c.MustStore64(p-8, 0x4141414141414141)
	case Crash:
		panic("fault: injected worker crash")
	default:
		c.Violate(fmt.Errorf("%w: unknown kind %d", ErrInjected, kind))
	}
}
