package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALDecode checks the property crash recovery needs: a log of
// committed batches followed by arbitrary bytes reopens, and its records
// begin with the committed batches' records. Crash debris after the
// committed prefix — torn frames, flipped CRCs, oversized length fields,
// zero fill — is truncated, never refused. The one refusal is a
// checksummed frame whose payload of 4 or more bytes is not a batch: no
// crash writes one (the CRC vouches for the bytes), so it is a writer
// bug or version skew, and recovery reports ErrBadBatch rather than drop
// what follows. Along the way the frame decoder's own contract holds:
// typed errors, no panics, no over-reads, and a clean rescan of the
// prefix it reports as valid. The checked-in corpus under
// testdata/fuzz/FuzzWALDecode holds those tail shapes.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, AppendBatch(nil, nil)))
	f.Add(AppendFrame(nil, AppendBatch(nil, [][]byte{[]byte("Skey\x00value")})))
	two := AppendFrame(nil, AppendBatch(nil, [][]byte{[]byte("a")}))
	two = AppendFrame(two, AppendBatch(nil, [][]byte{[]byte("b"), []byte("c")}))
	f.Add(two)
	f.Add(two[:len(two)-3])                           // torn tail
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	flipped := append([]byte(nil), two...)
	flipped[5] ^= 0x40 // corrupt CRC header
	f.Add(flipped)
	f.Add(make([]byte, 4096)) // zero fill

	committed := [][]byte{[]byte("Skey-1\x00val-1"), []byte("Dkey-2"), []byte("Skey-3\x00val-3")}
	prefix := AppendFrame(nil, AppendBatch(nil, committed[:1]))
	prefix = AppendFrame(prefix, AppendBatch(nil, committed[1:]))
	// One store directory per fuzzing process, rewritten by every input:
	// inputs run one at a time within a process.
	dir := f.TempDir()

	f.Fuzz(func(t *testing.T, tail []byte) {
		payloads, valid, err := ScanFrames(tail)
		if valid < 0 || valid > len(tail) {
			t.Fatalf("valid offset %d outside [0,%d]", valid, len(tail))
		}
		if err == nil && valid != len(tail) {
			t.Fatalf("nil error but valid=%d of %d", valid, len(tail))
		}
		if err != nil {
			if !errors.Is(err, ErrTornFrame) && !errors.Is(err, ErrBadCRC) && !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("untyped scan error: %v", err)
			}
			re, revalid, rerr := ScanFrames(tail[:valid])
			if rerr != nil || revalid != valid || len(re) != len(payloads) {
				t.Fatalf("committed prefix rescan: %d/%d frames, %v", len(re), len(payloads), rerr)
			}
		}
		// Which of the tail's frames recovery keeps, and whether one of
		// them is a checksummed non-batch it must refuse.
		kept, _ := committedPrefix(tail)
		refused := false
		for _, payload := range kept {
			records, berr := DecodeBatch(payload)
			if berr != nil {
				if !errors.Is(berr, ErrBadBatch) {
					t.Fatalf("untyped batch error: %v", berr)
				}
				refused = true
				break
			}
			if !bytes.Equal(AppendBatch(nil, records), payload) {
				t.Fatalf("batch round-trip mismatch")
			}
		}

		if err := os.WriteFile(filepath.Join(dir, walName), append(append([]byte(nil), prefix...), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenFile(dir, FileConfig{})
		if refused {
			if !errors.Is(err, ErrBadBatch) {
				t.Fatalf("a checksummed non-batch after the prefix: OpenFile = %v, want ErrBadBatch", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenFile over a committed prefix: %v", err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		_, records, err := st.Recover()
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if len(records) < len(committed) {
			t.Fatalf("recovered %d records, want at least the %d committed", len(records), len(committed))
		}
		for i, want := range committed {
			if !bytes.Equal(records[i], want) {
				t.Fatalf("record %d = %q, want %q", i, records[i], want)
			}
		}
		if st.WALBytes() < int64(len(prefix)) {
			t.Fatalf("log truncated to %d bytes, inside the %d-byte committed prefix", st.WALBytes(), len(prefix))
		}
	})
}
