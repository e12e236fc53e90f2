// Package mem implements the paged virtual memory of the simulated
// machine underneath the SDRaD reproduction.
//
// Memory is organized as 4 KiB pages. Each mapped page carries normal
// page protections (read/write) and a PKU protection-key tag. Every load
// and store is checked against both the page protections and the caller's
// PKRU register value, exactly as the hardware page walk + PKU check
// would do; violations surface as *Fault errors carrying the same
// information a SIGSEGV siginfo would (faulting address, access type,
// protection key). SDRaD's isolation guarantee — a memory defect inside a
// domain can only touch that domain's pages — is enforced here.
//
// # Host-side fast path
//
// Translation is a two-level radix walk (a dense leaf array indexed by
// the low page-number bits under a growable top-level table) fronted by a
// small direct-mapped software TLB that caches the outcome of the full
// page-walk + PKU check per (page, PKRU) pair. The TLB is flushed on
// Unmap/Protect/TagKey — the simulated equivalents of the operations that
// shoot down a hardware TLB — and a PKRU change needs no flush because
// the register value is part of the entry tag. Stores additionally
// maintain a per-page dirty bitmap so Zero can scrub only pages that were
// actually written since they were last known-zero. The fast path itself
// never changes virtual-cycle accounting — benign loads, stores, maps,
// and zeroes charge exactly the cycles the seed implementation charged
// (see the package tests for the pinned values). Two deliberate
// accounting changes ride alongside it: Protect/TagKey charge
// PkeyMprotect per page (the syscall updates every PTE in the range),
// and every access charges before the permission check
// (charge-before-fault).
//
// # Invariants
//
//   - Isolation: every Load/Store is checked against page protections
//     and the caller's PKRU value; no unchecked access path exists
//     outside the explicitly kernel-side Peek/Poke helpers (which the
//     trusted runtime uses for in-band metadata, never domain code).
//   - Accounting stability: benign accesses charge exactly the cycles
//     the seed implementation charged; host-side caching (TLB, dirty
//     bitmaps) never changes virtual cost (pinned by the package tests).
//   - Fault fidelity: denied accesses yield *Fault values carrying the
//     faulting address, access type, and protection key — the siginfo
//     the detection layer (internal/detect) classifies.
//
// DESIGN.md §7 documents the performance architecture in full.
package mem
