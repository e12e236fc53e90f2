package persist

import "errors"

// SnapshotPage is one captured page image: the simulated page number
// and its full contents.
type SnapshotPage struct {
	PN   uint64
	Data []byte
}

// Snapshot is the durable checkpoint a Recover returns: an opaque
// metadata blob (the kvstore layer serializes its cache index and heap
// geometry into it) plus the merged page images of the captured heap.
// Pages are in ascending page-number order.
type Snapshot struct {
	Meta  []byte
	Pages []SnapshotPage
}

// ErrClosed is returned by operations on a closed (or killed) store.
var ErrClosed = errors.New("persist: store is closed")

// ErrKilled is returned by an append the crash hook cut short; the
// store is dead afterwards, exactly like a process that died mid-write.
var ErrKilled = errors.New("persist: store killed mid-append")

// Store is the pluggable durability backend: a write-ahead log with
// batch-granular group commit, checkpointing, and recovery. The file
// backend (FileStore) is the first implementation; the per-entity
// layering — callers speak records and snapshots, never files — leaves
// room for a SQL-style backend behind the same interface.
//
// The contract: a record handed to Append is durable iff Append
// returned nil (ack-after-commit); records of one Append call are
// atomic (all recovered or none); Snapshot supersedes the log, so
// Recover returns the latest committed snapshot plus exactly the
// records appended after it, in order.
type Store interface {
	// Append durably commits one batch of records as a unit: one framed
	// write (and at most one fsync) regardless of batch size. A batch
	// rejected before any byte was written (e.g. over the frame size
	// limit) leaves the store usable; any failure after bytes may have
	// reached the log kills the store (later calls return ErrClosed) —
	// committing past a possibly-torn frame would let recovery's
	// first-bad-frame truncation discard acknowledged batches.
	// Records are only read during the call: the store keeps no
	// reference to them once Append returns, so the caller may reuse
	// their bytes for the next batch.
	Append(records [][]byte) error
	// Snapshot atomically commits a checkpoint: the metadata blob plus
	// the page images modified since the previous snapshot (the backend
	// keeps the cumulative set). After it returns, the log records it
	// covered are no longer needed for recovery. A failed Snapshot must
	// leave the store usable for appends and retain the handed-in delta
	// for the next attempt: callers treat the failure as a degraded,
	// log-only condition, never as data loss — the WAL still holds the
	// full committed history.
	Snapshot(meta []byte, delta []SnapshotPage) error
	// Recover returns the latest committed snapshot (nil if none) and
	// the committed record suffix to replay over it.
	Recover() (*Snapshot, [][]byte, error)
	// Close flushes and releases the backend.
	Close() error
}
