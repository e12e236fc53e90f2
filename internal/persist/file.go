package persist

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// File layout of the file backend. The WAL is a flat frame sequence;
// the snapshot is a single frame, replaced atomically by
// write-tmp/fsync/rename, so at every instant exactly one committed
// snapshot exists on disk (or none).
const (
	walName      = "wal.log"
	snapshotName = "snapshot.dat"
	snapshotTmp  = "snapshot.tmp"
)

// FileConfig configures a FileStore.
type FileConfig struct {
	// Fsync syncs the WAL file on every Append (the durable-by-ack
	// configuration). Off, appends reach the OS but a host crash can
	// lose the tail — the usual fsync-off trade.
	Fsync bool
	// Metrics receives the store's counters (optional; may be shared
	// across stores).
	Metrics *metrics.Persist
}

// RecoveryInfo describes what OpenFile found on disk.
type RecoveryInfo struct {
	// HadSnapshot reports that a committed snapshot was loaded.
	HadSnapshot bool
	// Batches is the number of committed WAL batches found.
	Batches int
	// TornBytes is the byte count truncated off the WAL tail (0 when
	// the log ended on a frame boundary).
	TornBytes int64
}

// FileStore is the file-backed Store: one WAL file plus one snapshot
// file per store directory. Safe for concurrent use (the recovery
// hammer kills stores from outside the owning shard's goroutine).
type FileStore struct {
	mu     sync.Mutex
	dir    string
	cfg    FileConfig
	wal    *os.File
	walLen int64
	dead   bool
	// killFrac, when >= 0, arms the crash hook: the next Append writes
	// only that fraction of its frame and dies — the seeded mid-commit
	// kill the campaign's recovery scenarios use.
	killFrac float64

	// pages is the cumulative snapshot page set; Snapshot merges deltas
	// into it so each checkpoint file is self-contained.
	pages map[uint64][]byte
	meta  []byte

	recovered *Snapshot
	records   [][]byte
	info      RecoveryInfo

	// frame is the buffer Append encodes each frame into, reused from
	// append to append (see maxKeptFrame).
	frame []byte
}

// maxKeptFrame bounds the frame buffer a store keeps between appends:
// one that grew past it for a large batch is dropped afterwards, so a
// store does not hold its largest batch for the rest of its life.
const maxKeptFrame = 64 << 10

// OpenFile opens (creating as needed) the store rooted at dir and
// performs recovery: it loads the latest committed snapshot, truncates
// any torn WAL tail at the first bad frame, and decodes the committed
// record suffix for Recover to return.
func OpenFile(dir string, cfg FileConfig) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	s := &FileStore{dir: dir, cfg: cfg, killFrac: -1, pages: make(map[uint64][]byte)}
	if err := s.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	if s.cfg.Metrics != nil && (s.info.HadSnapshot || s.info.Batches > 0 || s.info.TornBytes > 0) {
		s.cfg.Metrics.ObserveRecovery(s.info.Batches, s.info.TornBytes)
	}
	return s, nil
}

// loadSnapshot reads and validates snapshot.dat, if present. A missing
// file means no checkpoint; an unreadable one is an error — the
// snapshot is committed atomically, so a bad frame is real corruption,
// not a torn write, and silently discarding it would lose data.
func (s *FileStore) loadSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, snapshotName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	payload, rest, err := DecodeFrame(raw)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("persist: snapshot: %w: %d trailing bytes", ErrBadBatch, len(rest))
	}
	meta, pages, err := decodeSnapshotPayload(payload)
	if err != nil {
		return fmt.Errorf("persist: snapshot: %w", err)
	}
	// Deep-copy out of the read buffer. decodeSnapshotPayload aliases
	// raw, and the store must never hand out (or keep) bytes backed by
	// it: a later Snapshot rebuilds s.meta while s.recovered is still
	// live, and sharing the file buffer would let one overwrite the
	// other's pages.
	meta = append([]byte(nil), meta...)
	for i := range pages {
		pages[i].Data = append([]byte(nil), pages[i].Data...)
	}
	s.meta = meta
	for _, p := range pages {
		s.pages[p.PN] = p.Data
	}
	s.recovered = &Snapshot{Meta: meta, Pages: pages}
	s.info.HadSnapshot = true
	return nil
}

// openWAL opens the log, truncates a torn tail at the first bad frame,
// and decodes the committed batches into the record suffix. With Fsync
// on it also syncs the directory, so the log's directory entry — new
// when the store is — is durable before the first acknowledged append;
// until the first snapshot nothing else would sync it.
func (s *FileStore) openWAL() error {
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("persist: wal: %w", err)
	}
	if s.cfg.Fsync {
		if err := syncDir(s.dir); err != nil {
			cerr := f.Close()
			return fmt.Errorf("persist: wal dir sync: %w", firstErr(err, cerr))
		}
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		cerr := f.Close()
		return fmt.Errorf("persist: wal read: %w", firstErr(err, cerr))
	}
	payloads, valid := committedPrefix(raw)
	if valid < len(raw) {
		// Torn tail: everything from the first bad frame on is an
		// uncommitted append cut short by a crash. Truncate, so the next
		// append starts on a frame boundary.
		s.info.TornBytes = int64(len(raw) - valid)
		if err := f.Truncate(int64(valid)); err != nil {
			cerr := f.Close()
			return fmt.Errorf("persist: wal truncate: %w", firstErr(err, cerr))
		}
		if err := f.Sync(); err != nil {
			cerr := f.Close()
			return fmt.Errorf("persist: wal sync: %w", firstErr(err, cerr))
		}
	}
	for _, payload := range payloads {
		records, err := DecodeBatch(payload)
		if err != nil {
			cerr := f.Close()
			return fmt.Errorf("persist: wal batch %d: %w", s.info.Batches, firstErr(err, cerr))
		}
		s.records = append(s.records, records...)
		s.info.Batches++
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		cerr := f.Close()
		return fmt.Errorf("persist: wal seek: %w", firstErr(err, cerr))
	}
	s.wal = f
	s.walLen = int64(valid)
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Recover implements Store, returning what OpenFile found.
func (s *FileStore) Recover() (*Snapshot, [][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return nil, nil, ErrClosed
	}
	return s.recovered, s.records, nil
}

// Info returns what OpenFile found on disk.
func (s *FileStore) Info() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// KillNextAppend arms the crash hook: the next Append writes only frac
// of its frame bytes (clamped to leave the frame incomplete), makes
// the partial write durable, and returns ErrKilled with the store dead
// — simulating a process crash in the middle of a group commit. The
// torn tail is what recovery must then truncate.
func (s *FileStore) KillNextAppend(frac float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	s.killFrac = frac
}

// Append implements Store: one framed write and at most one fsync for
// the whole batch. An oversized batch is rejected before any byte
// reaches the file (the store stays usable); a failed write or sync
// kills the store — the commit offset may now hold a torn partial
// frame, and committing anything after it would let recovery's
// first-bad-frame rule truncate those later, acknowledged batches. The
// batch is encoded straight into a frame buffer the store reuses, so
// an append allocates nothing once that buffer has grown to fit.
func (s *FileStore) Append(records [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrClosed
	}
	if size := batchSize(records); size > MaxFrameSize {
		// Enforced at append time, not just decode time: a frame the
		// decoder would refuse must never be written, or recovery would
		// discard it — and everything after it — as a torn tail.
		return fmt.Errorf("persist: append: %w: %d bytes", ErrFrameTooLarge, size)
	}
	s.frame = appendBatchFrame(s.frame[:0], records)
	frame := s.frame
	if cap(s.frame) > maxKeptFrame {
		s.frame = nil // this append still writes frame; the next starts afresh
	}
	if s.killFrac >= 0 {
		n := int(s.killFrac * float64(len(frame)))
		if n >= len(frame) {
			n = len(frame) - 1 // the kill must tear the frame
		}
		if _, werr := s.wal.Write(frame[:n]); werr != nil {
			s.dead = true
			return fmt.Errorf("persist: killed append write: %w", werr)
		}
		// The partial write is made durable: the crash scenario where
		// the torn bytes DID reach disk is the one torn-tail truncation
		// exists for.
		if serr := s.wal.Sync(); serr != nil {
			s.dead = true
			return fmt.Errorf("persist: killed append sync: %w", serr)
		}
		s.dead = true
		return ErrKilled
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.dead = true
		return fmt.Errorf("persist: append: %w", err)
	}
	if s.cfg.Fsync {
		if err := s.wal.Sync(); err != nil {
			s.dead = true
			return fmt.Errorf("persist: append sync: %w", err)
		}
	}
	s.walLen += int64(len(frame))
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveAppend(len(frame), s.cfg.Fsync)
	}
	return nil
}

// Snapshot implements Store: merge the delta into the cumulative page
// set, commit the checkpoint atomically (write-tmp, fsync, rename,
// fsync dir), then truncate the WAL it supersedes. A crash between the
// rename and the truncate is safe: replaying the full WAL over the new
// snapshot is idempotent (records are whole-value puts and deletes).
// The merge happens before any file I/O, so a failed commit retains
// the delta in the cumulative set — the store stays usable in
// log-only mode and the next Snapshot call re-commits everything.
func (s *FileStore) Snapshot(meta []byte, delta []SnapshotPage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrClosed
	}
	// Fresh allocation, never append-in-place: after recovery s.meta
	// shares its backing array with s.recovered.Meta, and a longer meta
	// written in place would trample it.
	s.meta = append([]byte(nil), meta...)
	for _, p := range delta {
		s.pages[p.PN] = append([]byte(nil), p.Data...)
	}
	payload := encodeSnapshotPayload(s.meta, s.pages)
	tmp := filepath.Join(s.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: snapshot tmp: %w", err)
	}
	if _, werr := f.Write(AppendFrame(nil, payload)); werr != nil {
		cerr := f.Close()
		return fmt.Errorf("persist: snapshot write: %w", firstErr(werr, cerr))
	}
	if serr := f.Sync(); serr != nil {
		cerr := f.Close()
		return fmt.Errorf("persist: snapshot sync: %w", firstErr(serr, cerr))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("persist: snapshot dir sync: %w", err)
	}
	// The snapshot now covers every committed WAL record: truncate.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("persist: wal truncate: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("persist: wal seek: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("persist: wal sync: %w", err)
	}
	s.walLen = 0
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.ObserveSnapshot(len(delta))
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	return firstErr(serr, cerr)
}

// WALBytes returns the current committed WAL length, for tests and
// cadence diagnostics.
func (s *FileStore) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walLen
}

// Close implements Store.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	s.dead = true
	if err != nil {
		return fmt.Errorf("persist: close: %w", err)
	}
	return nil
}

// Snapshot payload format:
//
//	[metaLen u32][meta][count u32] then count pages,
//	each [pn u64][len u32][data]
//
// pages in ascending page-number order (deterministic bytes).
func encodeSnapshotPayload(meta []byte, pages map[uint64][]byte) []byte {
	pns := make([]uint64, 0, len(pages))
	//lint:detorder keys are sorted immediately below for deterministic output
	for pn := range pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	size := 8 + len(meta)
	for _, pn := range pns {
		size += 12 + len(pages[pn])
	}
	out := make([]byte, 0, size)
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(meta)))
	out = append(out, b8[:4]...)
	out = append(out, meta...)
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(pns)))
	out = append(out, b8[:4]...)
	for _, pn := range pns {
		binary.LittleEndian.PutUint64(b8[:], pn)
		out = append(out, b8[:]...)
		binary.LittleEndian.PutUint32(b8[:4], uint32(len(pages[pn])))
		out = append(out, b8[:4]...)
		out = append(out, pages[pn]...)
	}
	return out
}

func decodeSnapshotPayload(payload []byte) (meta []byte, pages []SnapshotPage, err error) {
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrBadBatch, len(payload))
	}
	n := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(len(rest)) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: meta %d of %d bytes", ErrBadBatch, len(rest), n)
	}
	meta = rest[:n]
	rest = rest[n:]
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("%w: page count truncated", ErrBadBatch)
	}
	count := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(count)*12 > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: page count %d exceeds payload", ErrBadBatch, count)
	}
	pages = make([]SnapshotPage, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 12 {
			return nil, nil, fmt.Errorf("%w: page %d header truncated", ErrBadBatch, i)
		}
		pn := binary.LittleEndian.Uint64(rest)
		sz := binary.LittleEndian.Uint32(rest[8:])
		rest = rest[12:]
		if uint64(len(rest)) < uint64(sz) {
			return nil, nil, fmt.Errorf("%w: page %d is %d of %d bytes", ErrBadBatch, i, len(rest), sz)
		}
		pages = append(pages, SnapshotPage{PN: pn, Data: rest[:sz]})
		rest = rest[sz:]
	}
	if len(rest) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, len(rest))
	}
	return meta, pages, nil
}
