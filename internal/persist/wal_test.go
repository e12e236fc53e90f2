package persist

import (
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xab}, 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	got, valid, err := ScanFrames(buf)
	if err != nil {
		t.Fatalf("ScanFrames: %v", err)
	}
	if valid != len(buf) {
		t.Fatalf("valid = %d, want %d", valid, len(buf))
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d frames, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

func TestDecodeFrameTorn(t *testing.T) {
	full := AppendFrame(nil, []byte("hello world"))
	for cut := 0; cut < len(full); cut++ {
		_, _, err := DecodeFrame(full[:cut])
		if !errors.Is(err, ErrTornFrame) {
			t.Fatalf("cut=%d: err = %v, want ErrTornFrame", cut, err)
		}
	}
}

func TestDecodeFrameBadCRC(t *testing.T) {
	full := AppendFrame(nil, []byte("hello world"))
	for i := FrameHeaderSize; i < len(full); i++ {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		_, _, err := DecodeFrame(mut)
		if !errors.Is(err, ErrBadCRC) {
			t.Fatalf("flip@%d: err = %v, want ErrBadCRC", i, err)
		}
	}
	// Flipping a CRC header byte must also fail the checksum.
	mut := append([]byte(nil), full...)
	mut[4] ^= 0x80
	if _, _, err := DecodeFrame(mut); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("crc flip: err = %v, want ErrBadCRC", err)
	}
}

func TestDecodeFrameOversizedLength(t *testing.T) {
	b := make([]byte, FrameHeaderSize)
	b[0], b[1], b[2], b[3] = 0xff, 0xff, 0xff, 0xff
	_, _, err := DecodeFrame(b)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestScanFramesTornTail(t *testing.T) {
	a := AppendFrame(nil, []byte("committed-1"))
	buf := append([]byte(nil), a...)
	buf = AppendFrame(buf, []byte("committed-2"))
	whole := len(buf)
	buf = AppendFrame(buf, []byte("torn-by-crash"))
	buf = buf[:whole+5] // crash mid-append

	payloads, valid, err := ScanFrames(buf)
	if !errors.Is(err, ErrTornFrame) {
		t.Fatalf("err = %v, want ErrTornFrame", err)
	}
	if valid != whole {
		t.Fatalf("valid = %d, want %d", valid, whole)
	}
	if len(payloads) != 2 {
		t.Fatalf("got %d committed payloads, want 2", len(payloads))
	}
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("one")},
		{[]byte("a"), {}, []byte("ccc")},
	}
	for ci, records := range cases {
		payload := AppendBatch(nil, records)
		got, err := DecodeBatch(payload)
		if err != nil {
			t.Fatalf("case %d: DecodeBatch: %v", ci, err)
		}
		if len(got) != len(records) {
			t.Fatalf("case %d: got %d records, want %d", ci, len(got), len(records))
		}
		for i := range records {
			if !bytes.Equal(got[i], records[i]) {
				t.Errorf("case %d record %d mismatch", ci, i)
			}
		}
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short header":    {1, 0},
		"absurd count":    {0xff, 0xff, 0xff, 0xff},
		"record torn":     append(AppendBatch(nil, [][]byte{[]byte("abcdef")})[:8], 0x01),
		"trailing":        append(AppendBatch(nil, [][]byte{[]byte("x")}), 0x00),
		"count too large": {2, 0, 0, 0, 1, 0, 0, 0, 'x'},
	}
	for name, payload := range cases {
		if _, err := DecodeBatch(payload); !errors.Is(err, ErrBadBatch) {
			t.Errorf("%s: err = %v, want ErrBadBatch", name, err)
		}
	}
}

func TestSnapshotPayloadRoundTrip(t *testing.T) {
	pages := map[uint64][]byte{
		0x10: bytes.Repeat([]byte{1}, 4096),
		0x12: bytes.Repeat([]byte{2}, 4096),
		0x11: bytes.Repeat([]byte{3}, 4096),
	}
	payload := encodeSnapshotPayload([]byte("meta-blob"), pages)
	meta, got, err := decodeSnapshotPayload(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if string(meta) != "meta-blob" {
		t.Fatalf("meta = %q", meta)
	}
	if len(got) != 3 {
		t.Fatalf("got %d pages, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].PN >= got[i].PN {
			t.Fatalf("pages not ascending: %#x then %#x", got[i-1].PN, got[i].PN)
		}
	}
	for _, p := range got {
		if !bytes.Equal(p.Data, pages[p.PN]) {
			t.Errorf("page %#x contents mismatch", p.PN)
		}
	}
}

func TestSnapshotPayloadMalformed(t *testing.T) {
	good := encodeSnapshotPayload([]byte("m"), map[uint64][]byte{7: {1, 2, 3}})
	cases := map[string][]byte{
		"empty":        {},
		"meta torn":    good[:3],
		"page torn":    good[:len(good)-1],
		"trailing":     append(append([]byte(nil), good...), 0),
		"absurd count": {0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
	}
	for name, payload := range cases {
		if _, _, err := decodeSnapshotPayload(payload); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
