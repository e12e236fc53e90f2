// Package sdrad is the public API of SDRaD-Go, a reproduction of
// "Secure Rewind and Discard of Isolated Domains" and its
// sustainability evaluation ("Exploring the Environmental Benefits of
// In-Process Isolation for Software Resilience", DSN 2023).
//
// SDRaD lets an application execute untrusted or memory-unsafe work
// inside isolated domains backed by (simulated) Intel Memory Protection
// Keys. A memory-safety violation inside a domain — a cross-domain
// access, smashed stack canary, corrupted heap chunk, wild pointer — does
// not terminate the application: the domain is rewound to its entry
// point and its memory is discarded, in microseconds, and the caller
// takes an alternate action. The application keeps serving.
//
// # Quick start
//
// Every execution backend — Domain, Pool, Bridge — implements Runner:
// one cancellable, policy-carrying entry point, Do. Per-call policy
// rides in RunOptions: retries after rewind, the paper's alternate
// action, pool-worker affinity, and virtual-cycle budgets derived from
// the context deadline.
//
//	sup := sdrad.New()
//	dom, err := sup.NewDomain()
//	if err != nil { ... }
//	defer dom.Close()
//
//	err = dom.Do(ctx, func(c *sdrad.Ctx) error {
//		p := c.MustAlloc(64)
//		c.MustStore(p, payload) // contained: faults rewind the domain
//		return nil
//	},
//		sdrad.WithRetries(2),                               // re-enter after rewind
//		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
//			return nil // alternate action: serve a degraded result
//		}))
//
// A ctx deadline deterministically preempts a runaway run: the deadline
// maps to a virtual-cycle budget, the domain is rewound and discarded
// exactly as for a violation, and Do returns a *BudgetError
// (sdrad.IsBudget). Violations still surface as *ViolationError
// (sdrad.IsViolation) when no fallback is installed.
//
// Typed data transfer goes through Exec, which serializes the request
// into the domain heap with a serde codec, runs isolated, and decodes
// the response back out — no manual Alloc/Write/Read plumbing:
//
//	sum, err := sdrad.Exec(ctx, dom, req,
//		func(c *sdrad.Ctx, r Request) (Response, error) {
//			return handle(c, r), nil // runs inside the domain
//		})
//
// The library runs against a deterministic simulated machine (paged
// memory, software PKRU register, virtual cycle clock), because real PKU
// hardware is not reachable from portable Go; see DESIGN.md §2 for the
// substitution argument. All isolation semantics — 16 protection keys,
// AD/WD bits, per-page key tags, fault classification — follow the
// hardware architecture exactly.
//
// # Concurrency
//
// A Supervisor simulates one single-core machine: a Supervisor and the
// Domains created from it must be confined to a single goroutine at a
// time. To execute domains in parallel, use Pool, which is safe for
// concurrent use by any number of goroutines: it shards work across N
// workers, fixed at construction, each owning a private Supervisor and
// a warm pre-initialized domain that is discarded (not deinitialized)
// between requests.
//
//	pool, err := sdrad.NewPool(runtime.NumCPU())
//	if err != nil { ... }
//	defer pool.Close()
//
//	err = pool.Do(ctx, func(c *sdrad.Ctx) error {
//		p := c.MustAlloc(64)
//		c.MustStore(p, payload)
//		return nil
//	}, sdrad.WithWorker(shard)) // affinity: pin related calls to one worker
//	if v, ok := sdrad.IsViolation(err); ok {
//		// contained on one worker; all other workers kept serving
//	}
//
// Pool aggregates DetectionCounts, MemoryStats, and virtual time across
// its workers.
//
// # Async & batching
//
// Under load, per-call domain entries leave throughput on the table:
// every Do pays one Enter/Exit, one exit-time heap-integrity sweep, and
// one discard. AsyncPool is the io_uring-style answer — an asynchronous
// submission layer over Pool. Callers Submit calls and receive a
// Future; bounded per-worker queues coalesce up to MaxBatch queued
// calls into ONE domain entry, and admission control rejects excess
// load with a typed *OverloadError instead of queueing unboundedly.
//
//	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 32, MaxInflight: 1024})
//	if err != nil { ... }
//	defer ap.Close()
//
//	fut := ap.Submit(ctx, func(c *sdrad.Ctx) error { ... })
//	...
//	if err := fut.Wait(ctx); err != nil {
//		if o, ok := sdrad.IsOverload(err); ok { /* shed load */ }
//	}
//	ap.Flush() // barrier: every admitted call has resolved
//
// Batched execution is transparent: results are exactly what serial Do
// would return. A batch whose calls all return nil commits with the
// amortized cost; any detection rewinds the domain and re-derives every
// call's outcome through the serial path (the replay rule), so fault
// isolation, retries, and fallbacks behave per call. The synchronous
// doors Domain.DoBatch, Domain.DoBatchItems (Domain.AppendBatchItems
// for a caller that reuses its result slice), Pool.DoBatch and
// Pool.DoBatchItems expose the same engine for callers that already hold a batch. Because an
// aborted batch re-executes its calls, batched fns are under the same
// at-least-once contract as WithRetries. See DESIGN.md §9 for queue
// semantics, the replay rule, and why batched campaign traces are
// oracle-identical to serial ones.
package sdrad
