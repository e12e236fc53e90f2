// Package cluster is the distributed sharded tier on top of the
// single-process kvstore Pool: N nodes — each a full kvstore.Pool with
// its own simulated machines — behind a router that places keys by
// consistent hashing over fixed virtual slots, tracks node health
// through lease-based registration (the Milvus session-lease pattern:
// a node that stops renewing its lease is first Degraded, then Dead),
// hands a dead node's slots off to the survivors, and optionally
// serves reads from synchronous replicas.
//
// The tier is built entirely from the repository's existing invariants:
//
//   - Lifecycle. Router, Registry, and Node all embed
//     lifecycle.Machine and pass the shared lifecycletest conformance
//     battery (serving from construction, Drain → Close, typed
//     *LifecycleError refusals). A node's lease state reuses the
//     lifecycle vocabulary — Healthy / Degraded (lease stale, grace
//     window) / Stopped (lease expired, node dead).
//
//   - Determinism. The membership clock counts request arrivals and
//     explicit ticks, never wall time, so lease expiry — and therefore
//     failover — is a pure function of the request schedule. The
//     wallclock lint gate holds for this package like every other.
//
//   - The differential oracle. A cluster of N nodes must produce the
//     same per-request outcomes and the same survivor digest as a
//     single kvstore.Pool given the same seeded schedule, through
//     node crashes and rolling restarts. The oracle, which drives
//     this package, is the cluster row of internal/campaign's oracle
//     table, which `make campaign-smoke` walks.
//
// Placement: keys hash onto NumSlots fixed virtual slots (FNV-1a, the
// same hash family the pool uses for shards); each slot's owner and
// replicas are chosen by rendezvous (highest-random-weight) hashing
// over the live membership, so a node's death moves exactly its own
// slots and a rejoin reclaims exactly the slots it owned before.
// Writes acknowledged by a slot's primary are applied synchronously to
// the slot's replicas before the router acks the client (and, on
// durable nodes, group-commit to the replica's WAL first), which is
// what makes crash handoff lossless when Replicas >= 2. DESIGN.md §14
// develops the placement rule, the handoff-vs-WAL ordering, and the
// oracle soundness argument.
package cluster
