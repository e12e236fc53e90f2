// Package campaign is the deterministic resilience-campaign engine: it
// composes the repo's workloads (the kvstore text protocol, httpd's
// request-head parser, FFI codec transfer) with injected memory-safety
// faults across the three public Runner backends (Domain, Pool, Bridge),
// interleaved by a seeded PRNG schedule, and records a structured
// outcome trace that differential oracles check:
//
//   - same seed ⇒ bit-identical trace (JSON byte equality);
//   - same scenario across worker counts ⇒ identical per-request
//     detection outcomes and survivor-state digests;
//   - benign-only campaigns ⇒ zero detections and virtual-cycle parity
//     with a direct replay that bypasses the engine's bookkeeping.
//
// The engine runs requests through an ExecutorFactory that provisions
// workers behind one of the three Runner implementations. Backends is
// the production wiring; tests substitute instrumented executors. The
// engine imports what it tests — the root package, the kvstore,
// cluster and httpd servers (the HTTP workload parses with
// httpd.Parse) — and none of them imports it: the servedlinks lint
// keeps the engine out of every serving binary.
//
// Everything here is a pure function of (seed, scenario list, worker
// count): no wall clock, no map-iteration dependence, no goroutines.
// See DESIGN.md §8 for the scenario schema and oracle definitions.
//
// # One wave loop
//
// Every run — plain, batched, resized, gateway — goes through one wave
// loop: requests are drawn in arrival order into waves of Config.Batch
// (1 = serial), admitted through the gateway if there is one, executed
// in per-worker groups sharing one domain entry where the executor is a
// BatchExecutor (the pool backend, via the batch engine's replay rule),
// and applied to survivor state in arrival order. CheckBatched asserts
// the resulting outcome streams and survivor digests are identical to
// the serial run — the batched==serial oracle. Virtual cycles and
// detection totals are exempt: amortized entries spend fewer cycles,
// and an aborted batch re-derives outcomes serially, legitimately
// recounting detections. DESIGN.md §9 develops the argument.
package campaign
