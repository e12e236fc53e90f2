// Package submit implements the bounded submission-queue machinery under
// the asynchronous batched execution layer (sdrad.AsyncPool and the
// pipelined network servers): per-worker FIFO queues, futures, worker
// drain loops, and typed admission-control errors.
//
// The design follows the io_uring shape. Producers Submit tasks into a
// per-worker bounded queue and receive a Future; one consumer goroutine
// per worker drains up to MaxBatch queued tasks at a time and hands the
// batch to an executor callback, which amortizes a fixed per-entry cost
// (for SDRaD: one domain Enter/Exit, one heap-integrity sweep, one
// discard decision) across the whole batch and records each task's
// outcome; the drain loop then publishes each outcome to its Future. A
// full queue rejects immediately with *OverloadError — the backpressure
// signal servers translate into 503/SERVER_ERROR — instead of queueing
// unboundedly. A submitter that is about to wait for its one task
// anyway may run it itself (RunTask): on an idle queue the task is a
// one-task batch executed on the submitter's goroutine, with no hand-off
// to the drain loop and back.
//
// The queue set is fixed when New makes it, so a submission indexes its
// queue directly. An elastic server resizes the worker domains behind
// its queues, never the queues.
//
// Invariants:
//
//   - Per-worker FIFO: tasks submitted to one worker are handed to the
//     executor in submission order, and batches never interleave (one
//     batch per worker is in flight at a time, whether the drain loop or
//     an inline run executes it; an inline run starts only on a queue
//     that holds nothing and runs nothing).
//   - Every accepted task is resolved exactly once — by its drain loop,
//     or by the inline run that executed it: with the outcome the
//     executor recorded, with errUnresolved if it recorded none, or with
//     ErrClosed when Close discards it. Futures never leak.
//   - A resolved task is its submitter's again. Neither the drain loop
//     nor an inline run touches a task after publishing its outcome, so
//     a submitter that owns its tasks (SubmitTask, RunTask) may reuse one
//     as soon as its Future's Err returns; a request queued that way
//     allocates nothing here.
//   - Flush returns only when every task accepted before the call has
//     been resolved, inline runs included; Close returns only after
//     every batch has returned from Exec, inline runs included.
//
// The package is deliberately free of simulated-machine dependencies:
// batching policy lives here, batch *semantics* (the replay rule that
// makes batched results match serial execution) live in the sdrad root
// package. See DESIGN.md §9 for the full async architecture.
package submit
