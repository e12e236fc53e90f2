package kvstore

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/persist"
)

// This file wires the durability engine (internal/persist) into the
// server. The contract mirrors the SDRaD commit rule: a mutation is
// staged when the normal apply path executes it, and the staged records
// flush to the WAL as one group commit when the enclosing batch
// resolves — one framed append and at most one fsync per batch,
// regardless of batch size. Requests whose parse was rewound
// (violation, budget preemption) never reach apply, so a detection
// logically aborts the batch's would-be records: the log records
// exactly the acknowledged, sweep-verified history.
//
// Snapshots checkpoint the storage domain's heap as raw page images:
// the allocator's metadata is in-band, so the heap travels as pages
// plus the host-side cache index (serialized into the snapshot meta
// blob). Recovery restores the pages at their original addresses,
// re-derives the allocator state, runs the same integrity sweep a
// domain exit runs, and replays the committed WAL suffix through the
// normal apply path.
//
// Two documented approximations: GETs are not logged, so LRU *eviction
// order* after recovery reflects write recency only (exact state
// recovery is guaranteed when no eviction occurred since the last
// snapshot); and item expiries are stored as absolute virtual times,
// so a recovered process — whose virtual clock restarts — honors at
// least the remaining lifetime.

// PersistConfig enables durable persistence on a Server (or, via
// NewPool, one subdirectory per shard).
type PersistConfig struct {
	// Dir is the store directory. Empty disables persistence —
	// memory-only operation, byte-identical to a server built without
	// the config.
	Dir string
	// Fsync syncs the WAL on every group commit (ack == durable).
	Fsync bool
	// SnapshotEvery takes an incremental snapshot every N committed
	// batches (0 = never; the WAL then holds the full history).
	SnapshotEvery int
	// Metrics receives durability counters (optional; shared across
	// shards when set on a pool config).
	Metrics *metrics.Persist
}

// Mutation record opcodes.
const (
	recSet    = 'S'
	recDelete = 'D'
)

// appendSet appends a SET record to dst: opcode, key, flags, the
// absolute virtual expiry, and the value bytes.
//
//	['S'][u32 keylen][key][u32 flags][i64 expireAt][value...]
func appendSet(dst []byte, key string, flags uint32, expireAt time.Duration, val []byte) []byte {
	dst = slices.Grow(dst, 1+4+len(key)+4+8+len(val))
	dst = binary.LittleEndian.AppendUint32(append(dst, recSet), uint32(len(key)))
	dst = binary.LittleEndian.AppendUint32(append(dst, key...), flags)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(expireAt))
	return append(dst, val...)
}

// appendDelete appends a DELETE record to dst: ['D'][key...].
func appendDelete(dst []byte, key string) []byte {
	return append(append(dst, recDelete), key...)
}

// mutation is one decoded WAL record.
type mutation struct {
	op       byte
	key      string
	flags    uint32
	expireAt time.Duration
	value    []byte
}

// ErrBadRecord marks a committed WAL record that does not decode as a
// mutation: the log's CRC vouched for its bytes, so it means a writer
// bug or version skew, and recovery stops rather than guess.
var ErrBadRecord = errors.New("kvstore: malformed wal record")

// decodeRecord decodes one record appendSet or appendDelete wrote. The
// key is a copy; the value aliases rec. Every error wraps ErrBadRecord.
func decodeRecord(rec []byte) (mutation, error) {
	if len(rec) == 0 {
		return mutation{}, fmt.Errorf("%w: empty", ErrBadRecord)
	}
	switch rec[0] {
	case recDelete:
		return mutation{op: recDelete, key: string(rec[1:])}, nil
	case recSet:
		rest := rec[1:]
		if len(rest) < 4 {
			return mutation{}, fmt.Errorf("%w: set record truncated", ErrBadRecord)
		}
		klen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(klen)+12 {
			return mutation{}, fmt.Errorf("%w: set record truncated", ErrBadRecord)
		}
		key := string(rest[:klen])
		rest = rest[klen:]
		flags := binary.LittleEndian.Uint32(rest)
		expire := time.Duration(binary.LittleEndian.Uint64(rest[4:12]))
		return mutation{op: recSet, key: key, flags: flags, expireAt: expire, value: rest[12:]}, nil
	default:
		return mutation{}, fmt.Errorf("%w: unknown opcode %#x", ErrBadRecord, rec[0])
	}
}

// indexEntry is one cache-index item inside the snapshot meta blob.
type indexEntry struct {
	key      string
	addr     mem.Addr
	size     int
	flags    uint32
	expireAt time.Duration
}

// encodeMeta serializes the snapshot metadata: the heap's region
// geometry plus the cache index. Items are emitted LRU-last first
// (back to front), so the restore's PushFront loop reproduces the
// recency order.
//
//	[u32 nregions]{u64 base, u32 npages, u64 used}*
//	[u32 nitems]{u32 keylen, key, u64 addr, u32 size, u32 flags, u64 expireAt}*
func encodeMeta(regions []alloc.RegionImage, c *Cache) []byte {
	var b8 [8]byte
	out := make([]byte, 0, 8+20*len(regions)+32*c.Items())
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(regions)))
	out = append(out, b8[:4]...)
	for _, r := range regions {
		binary.LittleEndian.PutUint64(b8[:], uint64(r.Base))
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint32(b8[:4], uint32(r.NPages))
		out = append(out, b8[:4]...)
		binary.LittleEndian.PutUint64(b8[:], r.Used)
		out = append(out, b8[:]...)
	}
	binary.LittleEndian.PutUint32(b8[:4], uint32(c.lru.Len()))
	out = append(out, b8[:4]...)
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		binary.LittleEndian.PutUint32(b8[:4], uint32(len(e.key)))
		out = append(out, b8[:4]...)
		out = append(out, e.key...)
		binary.LittleEndian.PutUint64(b8[:], uint64(e.addr))
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint32(b8[:4], uint32(e.size))
		out = append(out, b8[:4]...)
		binary.LittleEndian.PutUint32(b8[:4], e.flags)
		out = append(out, b8[:4]...)
		binary.LittleEndian.PutUint64(b8[:], uint64(e.expireAt))
		out = append(out, b8[:]...)
	}
	return out
}

func decodeMeta(meta []byte) ([]alloc.RegionImage, []indexEntry, error) {
	bad := func(what string) ([]alloc.RegionImage, []indexEntry, error) {
		return nil, nil, fmt.Errorf("kvstore: snapshot meta: %s truncated", what)
	}
	if len(meta) < 4 {
		return bad("region count")
	}
	nr := binary.LittleEndian.Uint32(meta)
	rest := meta[4:]
	if uint64(nr)*20 > uint64(len(rest)) {
		return bad("regions")
	}
	regions := make([]alloc.RegionImage, nr)
	for i := range regions {
		regions[i] = alloc.RegionImage{
			Base:   mem.Addr(binary.LittleEndian.Uint64(rest)),
			NPages: int(binary.LittleEndian.Uint32(rest[8:])),
			Used:   binary.LittleEndian.Uint64(rest[12:]),
		}
		rest = rest[20:]
	}
	if len(rest) < 4 {
		return bad("item count")
	}
	ni := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(ni)*24 > uint64(len(rest)) {
		return bad("items")
	}
	items := make([]indexEntry, 0, ni)
	for i := uint32(0); i < ni; i++ {
		if len(rest) < 4 {
			return bad("item key length")
		}
		klen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(klen)+24 {
			return bad("item")
		}
		key := string(rest[:klen])
		rest = rest[klen:]
		items = append(items, indexEntry{
			key:      key,
			addr:     mem.Addr(binary.LittleEndian.Uint64(rest)),
			size:     int(binary.LittleEndian.Uint32(rest[8:])),
			flags:    binary.LittleEndian.Uint32(rest[12:]),
			expireAt: time.Duration(binary.LittleEndian.Uint64(rest[16:24])),
		})
		rest = rest[24:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("kvstore: snapshot meta: %d trailing bytes", len(rest))
	}
	return regions, items, nil
}

// restoreIndex rebuilds the cache's host-side index from snapshot
// items (LRU-last first, as encodeMeta emits them). The entries' value
// addresses point into the restored storage heap.
func (c *Cache) restoreIndex(items []indexEntry) {
	c.item = make(map[string]*list.Element, len(items))
	c.lru = list.New()
	c.used = 0
	for _, it := range items {
		el := c.lru.PushFront(&entry{
			key: it.key, addr: it.addr, size: it.size,
			flags: it.flags, expireAt: it.expireAt,
		})
		c.item[it.key] = el
		c.used += uint64(it.size)
	}
}

// setExpire overwrites key's absolute expiry — the WAL replay path
// restoring the exact expiry the original SET computed.
func (c *Cache) setExpire(key string, at time.Duration) {
	if el, ok := c.item[key]; ok {
		el.Value.(*entry).expireAt = at
	}
}

// Dump copies every resident item out of the storage domain, in no
// particular recency meaning, without touching the hit/miss counters or
// the LRU order. Differential recovery oracles digest its result.
func (c *Cache) Dump() (map[string][]byte, error) {
	out := make(map[string][]byte, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.size == 0 {
			out[e.key] = []byte{}
			continue
		}
		val, err := c.sys.CopyFromDomain(e.addr, e.size)
		if err != nil {
			return nil, fmt.Errorf("kvstore: dump %q: %w", e.key, err)
		}
		out[e.key] = val
	}
	return out, nil
}

// AttachStore attaches a durability backend to the server: it runs
// recovery (restore the snapshot, verify the heap with the integrity
// sweep, replay the committed WAL suffix through the normal apply
// path) and then begins logging. snapEvery > 0 snapshots every N
// committed batches. NewServer calls this for PersistConfig; tests
// attach instrumented stores directly.
func (s *Server) AttachStore(st persist.Store, snapEvery int) error {
	if s.store != nil {
		return fmt.Errorf("kvstore: store already attached")
	}
	heap := s.cache.dom.Heap()
	// Tracking must be on before any write a later incremental capture
	// has to observe — including the restore writes below.
	heap.TrackModified()
	snap, records, err := st.Recover()
	if err != nil {
		return fmt.Errorf("kvstore: recover: %w", err)
	}
	if snap != nil {
		regions, items, err := decodeMeta(snap.Meta)
		if err != nil {
			return err
		}
		img := &alloc.HeapImage{Regions: regions, Pages: make([]alloc.PageImage, len(snap.Pages))}
		for i, p := range snap.Pages {
			img.Pages[i] = alloc.PageImage{PN: p.PN, Data: p.Data}
		}
		if err := heap.RestoreImage(img); err != nil {
			return fmt.Errorf("kvstore: restore heap: %w", err)
		}
		// The same sweep a domain exit runs proves the restored heap
		// sound before any recovered value is served.
		if err := heap.CheckIntegrity(); err != nil {
			return fmt.Errorf("kvstore: restored heap failed integrity sweep: %w", err)
		}
		s.cache.restoreIndex(items)
		s.snapCount++
	}
	if len(records) > 0 {
		s.replaying = true
		for i, rec := range records {
			if err := s.applyRecord(rec); err != nil {
				s.replaying = false
				return fmt.Errorf("kvstore: replay record %d: %w", i, err)
			}
		}
		s.replaying = false
	}
	s.store = st
	s.snapEvery = snapEvery
	return nil
}

// applyRecord replays one recovered mutation through the cache's
// normal mutation entry points.
func (s *Server) applyRecord(rec []byte) error {
	m, err := decodeRecord(rec)
	if err != nil {
		return err
	}
	switch m.op {
	case recSet:
		if err := s.cache.SetItem(m.key, m.value, 0, m.flags); err != nil {
			return err
		}
		s.cache.setExpire(m.key, m.expireAt)
		return nil
	default:
		_, err := s.cache.Delete(m.key)
		return err
	}
}

// stageSet stages the SET that apply just executed. The staged expiry
// is read back from the entry, so replay restores the exact absolute
// virtual time the original computed.
func (s *Server) stageSet(key string, flags uint32, val []byte) {
	if s.store == nil || s.replaying {
		return
	}
	var expireAt time.Duration
	if el, ok := s.cache.item[key]; ok {
		expireAt = el.Value.(*entry).expireAt
	}
	s.walBuf = appendSet(s.walBuf, key, flags, expireAt, val)
	s.walEnds = append(s.walEnds, len(s.walBuf))
}

// stageDelete stages a DELETE that found its key.
func (s *Server) stageDelete(key string) {
	if s.store == nil || s.replaying {
		return
	}
	s.walBuf = appendDelete(s.walBuf, key)
	s.walEnds = append(s.walEnds, len(s.walBuf))
}

// flushWAL group-commits the staged records: one Append (one frame, at
// most one fsync) for everything the resolved batch acknowledged. On
// the configured cadence it then takes an incremental snapshot. The
// records are views into the staging arena, which the next batch
// reuses: the Store contract is that Append keeps no reference to
// them.
//
// The two failure modes are deliberately asymmetric. A failed Append
// means the batch's records are NOT durable while its mutations are
// already in the cache: the caller withdraws the acks and the shard
// fail-stops (persistErr) so the divergent in-memory state can never
// reach a reader or a snapshot. A failed snapshot is the opposite —
// the records ARE durably committed, so the acks must stand; the shard
// degrades to log-only operation (snapErr) and retries on the next
// cadence point (the Store contract retains the delta).
func (s *Server) flushWAL() error {
	if s.store == nil || len(s.walEnds) == 0 {
		return nil
	}
	lo := 0
	for _, end := range s.walEnds {
		s.pending = append(s.pending, s.walBuf[lo:end])
		lo = end
	}
	err := s.store.Append(s.pending)
	clear(s.pending)
	s.pending, s.walEnds, s.walBuf = s.pending[:0], s.walEnds[:0], s.walBuf[:0]
	if cap(s.walBuf) > maxKeptRaw {
		s.walBuf = nil
	}
	if err != nil {
		err = fmt.Errorf("kvstore: wal commit: %w", err)
		s.persistErr = err
		return err
	}
	s.sinceSnap++
	if s.snapEvery > 0 && s.sinceSnap >= s.snapEvery {
		if err := s.snapshotNow(); err != nil {
			// Degraded, never nacked: everything acknowledged is in the
			// WAL, which recovery replays whether or not a newer snapshot
			// exists. The WAL just keeps growing until a snapshot lands.
			s.snapErr = err
		}
	}
	return nil
}

// failStopResponse is the response every request receives after the
// shard fail-stopped (see flushWAL and ErrShardFailed).
func (s *Server) failStopResponse() Response {
	return Response{Err: fmt.Errorf("%w: %w", ErrShardFailed, s.persistErr)}
}

// SnapshotErr returns the last snapshot failure, nil once a later
// snapshot commits — the observable "degraded log-only" condition.
func (s *Server) SnapshotErr() error { return s.snapErr }

// snapshotNow checkpoints the storage heap: the first snapshot of a
// process captures every nonzero page, later ones only the pages
// modified since the previous capture. The capture resets the
// modified-page baseline even when the backend commit then fails; that
// is safe because the Store contract requires a failed Snapshot to
// retain the handed-in delta, so the retry on the next cadence point
// (sinceSnap is not reset on failure) commits the union.
func (s *Server) snapshotNow() error {
	heap := s.cache.dom.Heap()
	img, err := heap.CaptureImage(s.snapCount > 0)
	if err != nil {
		return fmt.Errorf("kvstore: snapshot capture: %w", err)
	}
	pages := make([]persist.SnapshotPage, len(img.Pages))
	for i, p := range img.Pages {
		pages[i] = persist.SnapshotPage{PN: p.PN, Data: p.Data}
	}
	if err := s.store.Snapshot(encodeMeta(img.Regions, s.cache), pages); err != nil {
		return fmt.Errorf("kvstore: snapshot commit: %w", err)
	}
	s.snapCount++
	s.sinceSnap = 0
	s.snapErr = nil
	return nil
}

// Close flushes any staged records and releases the durability backend.
// A server without one closes trivially.
func (s *Server) Close() error {
	if s.store == nil {
		return nil
	}
	ferr := s.flushWAL()
	cerr := s.store.Close()
	s.store = nil
	if ferr != nil {
		return ferr
	}
	return cerr
}

// Store returns the attached durability backend (nil when memory-only).
func (s *Server) Store() persist.Store { return s.store }

// PersistErr returns the fatal group-commit failure that fail-stopped
// the shard, nil while the shard serves (the health surface's
// fail-stop signal).
func (s *Server) PersistErr() error { return s.persistErr }

// Drained reports whether a graceful drain completed on this shard.
func (s *Server) Drained() bool { return s.drained }

// Drain finishes the shard gracefully: commit any staged WAL records,
// take a final snapshot so recovery is cheap, release the store, and
// stop accepting requests. The WAL commit precedes the drained flag —
// the drain contract is that every acknowledged write is durable and no
// later request can be acknowledged at all. A fail-stopped shard drains
// without touching durable state (its WAL already holds exactly the
// acked prefix); a snapshot failure degrades the drain (the WAL alone
// recovers) rather than failing it. Idempotent.
func (s *Server) Drain() error {
	if s.drained {
		return nil
	}
	s.drained = true
	if s.store == nil {
		return nil
	}
	var ferr, serr error
	if s.persistErr == nil {
		ferr = s.flushWAL()
		if ferr == nil {
			if err := s.snapshotNow(); err != nil {
				// Degrade, don't fail: the committed WAL recovers alone.
				s.snapErr = err
				serr = err
			}
		}
	}
	cerr := s.store.Close()
	s.store = nil
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return cerr
	}
	return serr
}
