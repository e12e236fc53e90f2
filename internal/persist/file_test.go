package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

func page(fill byte) []byte { return bytes.Repeat([]byte{fill}, 4096) }

func TestFileStoreAppendRecover(t *testing.T) {
	dir := t.TempDir()
	var pm metrics.Persist
	st, err := OpenFile(dir, FileConfig{Fsync: true, Metrics: &pm})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Append([][]byte{[]byte("r1"), []byte("r2")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Append([][]byte{[]byte("r3")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if s := pm.Snapshot(); s.Appends != 2 || s.Fsyncs != 2 {
		t.Fatalf("metrics = %+v, want 2 appends 2 fsyncs", s)
	}

	st2, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	snap, records, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot")
	}
	want := []string{"r1", "r2", "r3"}
	if len(records) != len(want) {
		t.Fatalf("got %d records, want %d", len(records), len(want))
	}
	for i, w := range want {
		if string(records[i]) != w {
			t.Errorf("record %d = %q, want %q", i, records[i], w)
		}
	}
	if info := st2.Info(); info.Batches != 2 || info.TornBytes != 0 || info.HadSnapshot {
		t.Fatalf("info = %+v", info)
	}
}

func TestFileStoreKillTearsTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Fsync: true})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Append([][]byte{[]byte("committed")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	st.KillNextAppend(0.6)
	if err := st.Append([][]byte{[]byte("torn-away")}); !errors.Is(err, ErrKilled) {
		t.Fatalf("killed append err = %v, want ErrKilled", err)
	}
	// Dead store rejects everything.
	if err := st.Append([][]byte{[]byte("after")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-kill append err = %v, want ErrClosed", err)
	}
	if _, _, err := st.Recover(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-kill recover err = %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var pm metrics.Persist
	st2, err := OpenFile(dir, FileConfig{Metrics: &pm})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	_, records, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(records) != 1 || string(records[0]) != "committed" {
		t.Fatalf("records = %q, want [committed]", records)
	}
	info := st2.Info()
	if info.TornBytes == 0 {
		t.Fatalf("expected torn tail, info = %+v", info)
	}
	if s := pm.Snapshot(); s.Recoveries != 1 || s.TornTailBytes != uint64(info.TornBytes) {
		t.Fatalf("metrics = %+v vs info %+v", s, info)
	}
	// The truncation repaired the file: appends continue cleanly.
	if err := st2.Append([][]byte{[]byte("next")}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

// TestFileStoreZeroFilledTail: a crash can leave the log's size on disk
// ahead of its data, so the tail reads back as zeros. Eight or more zero
// bytes decode as a checksummed frame of length 0, which no append
// writes; recovery truncates them like any torn frame and keeps every
// batch in front of them.
func TestFileStoreZeroFilledTail(t *testing.T) {
	for _, zeros := range []int{4, 8, 12, 4096} {
		dir := t.TempDir()
		st, err := OpenFile(dir, FileConfig{Fsync: true})
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		if err := st.Append([][]byte{[]byte("acked")}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		committed := st.WALBytes()
		if err := st.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wal := filepath.Join(dir, walName)
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, zeros)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		st2, err := OpenFile(dir, FileConfig{Fsync: true})
		if err != nil {
			t.Fatalf("%d zero bytes: reopen: %v", zeros, err)
		}
		_, records, err := st2.Recover()
		if err != nil {
			t.Fatalf("%d zero bytes: Recover: %v", zeros, err)
		}
		if len(records) != 1 || string(records[0]) != "acked" {
			t.Errorf("%d zero bytes: records = %q, want [acked]", zeros, records)
		}
		if info := st2.Info(); info.Batches != 1 || info.TornBytes != int64(zeros) {
			t.Errorf("%d zero bytes: info = %+v, want 1 batch and %d torn bytes", zeros, info, zeros)
		}
		if fi, err := os.Stat(wal); err != nil || fi.Size() != committed {
			t.Errorf("%d zero bytes: log not truncated to %d bytes: %v, %v", zeros, committed, fi, err)
		}
		if err := st2.Append([][]byte{[]byte("next")}); err != nil {
			t.Fatalf("%d zero bytes: append after repair: %v", zeros, err)
		}
		if err := st2.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		st3, err := OpenFile(dir, FileConfig{})
		if err != nil {
			t.Fatalf("%d zero bytes: second reopen: %v", zeros, err)
		}
		if info := st3.Info(); info.Batches != 2 || info.TornBytes != 0 {
			t.Errorf("%d zero bytes: after repair info = %+v, want 2 batches, none torn", zeros, info)
		}
		if err := st3.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

func TestFileStoreSnapshotSupersedesLog(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{Fsync: true})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Append([][]byte{[]byte("pre-snap")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Snapshot([]byte("meta-1"), []SnapshotPage{{PN: 0x10, Data: page(1)}, {PN: 0x11, Data: page(2)}}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if n := st.WALBytes(); n != 0 {
		t.Fatalf("WAL not truncated after snapshot: %d bytes", n)
	}
	if err := st.Append([][]byte{[]byte("post-snap")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Incremental: only 0x11 changed; the backend must keep 0x10.
	if err := st.Snapshot([]byte("meta-2"), []SnapshotPage{{PN: 0x11, Data: page(3)}}); err != nil {
		t.Fatalf("Snapshot 2: %v", err)
	}
	if err := st.Append([][]byte{[]byte("tail")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	snap, records, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if snap == nil {
		t.Fatal("no snapshot recovered")
	}
	if string(snap.Meta) != "meta-2" {
		t.Fatalf("meta = %q, want meta-2", snap.Meta)
	}
	if len(snap.Pages) != 2 {
		t.Fatalf("got %d pages, want 2 (cumulative)", len(snap.Pages))
	}
	if snap.Pages[0].PN != 0x10 || !bytes.Equal(snap.Pages[0].Data, page(1)) {
		t.Fatalf("page 0x10 wrong")
	}
	if snap.Pages[1].PN != 0x11 || !bytes.Equal(snap.Pages[1].Data, page(3)) {
		t.Fatalf("page 0x11 not the newer image")
	}
	if len(records) != 1 || string(records[0]) != "tail" {
		t.Fatalf("records = %q, want [tail] (snapshot superseded the rest)", records)
	}
}

func TestFileStoreOversizedAppendRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if err := st.Append([][]byte{[]byte("first")}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// One MaxFrameSize record overflows the payload limit once batch
	// framing is added. The decoder would refuse this frame, so the
	// writer must too — before any byte reaches the file.
	if err := st.Append([][]byte{make([]byte, MaxFrameSize)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized append err = %v, want ErrFrameTooLarge", err)
	}
	// The rejection was clean: the store lives on and later commits land.
	if err := st.Append([][]byte{[]byte("second")}); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}

	st2, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	_, records, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(records) != 2 || string(records[0]) != "first" || string(records[1]) != "second" {
		t.Fatalf("records = %q, want [first second]", records)
	}
	if info := st2.Info(); info.TornBytes != 0 {
		t.Fatalf("oversized append left torn bytes: %+v", info)
	}
}

func TestFileStoreRecoveredSnapshotNotAliased(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Snapshot([]byte("m"), []SnapshotPage{{PN: 1, Data: page(7)}}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	snap, _, err := st2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// A follow-up snapshot with a much longer meta must not trample the
	// recovered snapshot's bytes (both once aliased the same read buffer).
	if err := st2.Snapshot(bytes.Repeat([]byte{'M'}, 4096), nil); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if string(snap.Meta) != "m" {
		t.Fatalf("recovered meta trampled: %q", snap.Meta)
	}
	if len(snap.Pages) != 1 || !bytes.Equal(snap.Pages[0].Data, page(7)) {
		t.Fatal("recovered page bytes trampled by later snapshot")
	}
}

func TestFileStoreCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := st.Snapshot([]byte("m"), []SnapshotPage{{PN: 1, Data: page(9)}}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, snapshotName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Unlike a torn WAL tail, a bad snapshot frame is real corruption —
	// the rename committed it atomically — so open refuses.
	if _, err := OpenFile(dir, FileConfig{}); err == nil {
		t.Fatal("open succeeded on corrupt snapshot")
	}
}

// referenceEncodeBatch and referenceAppendFrame are the batch and frame
// encoders as they were written before Append encoded into a reused
// frame buffer, kept verbatim: the reference the log's bytes are
// compared against.
func referenceEncodeBatch(records [][]byte) []byte {
	size := 4
	for _, r := range records {
		size += 4 + len(r)
	}
	out := make([]byte, 0, size)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(records)))
	out = append(out, n[:]...)
	for _, r := range records {
		binary.LittleEndian.PutUint32(n[:], uint32(len(r)))
		out = append(out, n[:]...)
		out = append(out, r...)
	}
	return out
}

func referenceAppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// TestAppendMatchesReferenceEncoding: the log holds exactly the bytes
// the reference encoders give for the committed batches — through a
// frame buffer that is reused, grown past maxKeptFrame and dropped, and
// left alone by an oversized batch, which is refused with the store
// still usable.
func TestAppendMatchesReferenceEncoding(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenFile(dir, FileConfig{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	big := bytes.Repeat([]byte{'v'}, 40<<10)
	mib := make([]byte, 1<<20)
	oversized := make([][]byte, MaxFrameSize>>20) // 64 × 1 MiB plus framing
	for i := range oversized {
		oversized[i] = mib
	}
	var want []byte
	for _, c := range []struct {
		name    string
		records [][]byte
		refused bool // Append must refuse the batch
		dropped bool // the frame buffer must be gone afterwards
	}{
		{"empty batch", nil, false, false},
		{"small", [][]byte{[]byte("Skey\x00value"), []byte("Dkey")}, false, false},
		{"reused buffer", [][]byte{[]byte("one")}, false, false},
		{"over 64 KiB", [][]byte{big, big}, false, true},
		{"after the drop", [][]byte{[]byte("two"), {}}, false, false},
		{"oversized", oversized, true, false},
		{"after the refusal", [][]byte{[]byte("three")}, false, false},
	} {
		err := st.Append(c.records)
		if c.refused {
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("%s: err = %v, want ErrFrameTooLarge", c.name, err)
			}
		} else {
			if err != nil {
				t.Fatalf("%s: Append: %v", c.name, err)
			}
			want = referenceAppendFrame(want, referenceEncodeBatch(c.records))
		}
		if cap(st.frame) > maxKeptFrame || (st.frame == nil) != c.dropped {
			t.Errorf("%s: frame buffer has capacity %d (nil: %v), want it dropped: %v",
				c.name, cap(st.frame), st.frame == nil, c.dropped)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log is %d bytes that differ from the reference encoding's %d", len(got), len(want))
	}
}
