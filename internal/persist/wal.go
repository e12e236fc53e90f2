package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// WAL frame format. Each committed batch is exactly one frame:
//
//	[length u32 LE][crc32 u32 LE][payload length bytes]
//
// length counts payload bytes only; crc32 is IEEE over the payload.
// One frame per batch makes batch atomicity structural: a crash during
// the group commit leaves a torn final frame (short, or with a CRC that
// cannot match its partially written payload), which recovery truncates
// wholesale — committed WAL records are therefore always whole batches.
//
// The frame payload is a batch: [count u32 LE] then count records,
// each [length u32 LE][bytes]. Records are opaque to this package; the
// kvstore layer encodes its mutations into them.

const (
	// FrameHeaderSize is the fixed per-frame overhead in bytes.
	FrameHeaderSize = 8
	// batchHeaderSize is a batch payload's record count: the fewest
	// bytes AppendBatch writes.
	batchHeaderSize = 4
	// MaxFrameSize bounds one frame's payload, so a corrupt length field
	// can never drive an over-read or an absurd allocation. 64 MiB holds
	// any realistic batch (kvstore values cap at 1 MiB).
	MaxFrameSize = 64 << 20
)

// Typed decode errors. The decoder returns these (wrapped with
// context); it never panics and never reads past the input.
var (
	// ErrTornFrame marks a frame cut short — a header or payload
	// truncated by a crash mid-append. Recovery truncates the log here.
	ErrTornFrame = errors.New("persist: torn frame")
	// ErrBadCRC marks a complete frame whose payload fails its checksum.
	ErrBadCRC = errors.New("persist: frame CRC mismatch")
	// ErrFrameTooLarge marks a length field above MaxFrameSize.
	ErrFrameTooLarge = errors.New("persist: frame length exceeds limit")
	// ErrBadBatch marks a frame payload that does not parse as a record
	// batch.
	ErrBadBatch = errors.New("persist: malformed record batch")
)

// AppendFrame appends one framed payload to dst and returns the
// extended slice.
func AppendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(slices.Grow(dst, FrameHeaderSize+len(payload)), make([]byte, FrameHeaderSize)...)
	return sealFrame(append(dst, payload...), start)
}

// appendBatchFrame appends records to dst as one framed batch, encoding
// the batch straight into the frame: the bytes of
// AppendFrame(dst, AppendBatch(nil, records)) without the payload copy.
func appendBatchFrame(dst []byte, records [][]byte) []byte {
	start := len(dst)
	dst = append(slices.Grow(dst, FrameHeaderSize+batchSize(records)), make([]byte, FrameHeaderSize)...)
	return sealFrame(AppendBatch(dst, records), start)
}

// sealFrame fills in the header of the frame that starts at dst[start]
// and runs to the end of dst: the payload's length and CRC.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+FrameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// DecodeFrame decodes the first frame of b, returning its payload
// (aliasing b) and the remaining bytes. Errors are typed: ErrTornFrame
// for truncation, ErrFrameTooLarge for an oversized length field,
// ErrBadCRC for checksum failure.
func DecodeFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < FrameHeaderSize {
		return nil, nil, fmt.Errorf("%w: %d header bytes", ErrTornFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if n > MaxFrameSize {
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint64(len(b)-FrameHeaderSize) < uint64(n) {
		return nil, nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTornFrame, len(b)-FrameHeaderSize, n)
	}
	payload = b[FrameHeaderSize : FrameHeaderSize+int(n)]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, nil, fmt.Errorf("%w: got %#x want %#x", ErrBadCRC, got, want)
	}
	return payload, b[FrameHeaderSize+int(n):], nil
}

// ScanFrames decodes consecutive frames from the front of b, stopping
// at the first bad one. It returns the valid payloads, the byte offset
// of the first bad frame (== len(b) when every byte parsed), and the
// error that stopped the scan (nil when every byte parsed). Recovery
// truncates the log at valid — the torn-tail rule: everything before
// the first bad frame is committed, everything after it is discarded.
func ScanFrames(b []byte) (payloads [][]byte, valid int, err error) {
	rest := b
	for len(rest) > 0 {
		payload, next, derr := DecodeFrame(rest)
		if derr != nil {
			return payloads, len(b) - len(rest), derr
		}
		payloads = append(payloads, payload)
		rest = next
	}
	return payloads, len(b), nil
}

// committedPrefix is ScanFrames with recovery's one further rule: a
// frame whose payload is too short to hold a batch's record count ends
// the committed prefix like a torn frame. AppendBatch never writes one,
// and a crash can leave one behind: a zero-filled tail — the file's
// size reached disk before its data — decodes as a run of them, since
// eight zero bytes are a header of length 0 whose CRC (the CRC-32 of
// nothing) is 0. It returns the committed payloads and the offset the
// log is truncated at (len(b) when nothing is torn).
func committedPrefix(b []byte) (payloads [][]byte, valid int) {
	payloads, valid, _ = ScanFrames(b) //lint:errclass the error only says why the prefix ended; valid says where, which is all recovery acts on
	off := 0
	for i, p := range payloads {
		if len(p) < batchHeaderSize {
			return payloads[:i], off
		}
		off += FrameHeaderSize + len(p)
	}
	return payloads, valid
}

// batchSize is the encoded size of records as a batch payload.
func batchSize(records [][]byte) int {
	size := batchHeaderSize
	for _, r := range records {
		size += 4 + len(r)
	}
	return size
}

// AppendBatch appends records to dst as one frame payload and returns
// the extended slice. dst grows at most once.
func AppendBatch(dst []byte, records [][]byte) []byte {
	dst = slices.Grow(dst, batchSize(records))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(records)))
	for _, r := range records {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
		dst = append(dst, r...)
	}
	return dst
}

// DecodeBatch decodes a frame payload back into its records (aliasing
// payload). A payload that does not parse exactly is ErrBadBatch: the
// CRC already vouched for the bytes, so a malformed batch means a
// writer bug or version skew, not a torn write.
func DecodeBatch(payload []byte) ([][]byte, error) {
	if len(payload) < batchHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadBatch, len(payload))
	}
	count := binary.LittleEndian.Uint32(payload[0:])
	rest := payload[4:]
	// Each record costs at least its 4-byte length prefix, so an honest
	// count is bounded by the remaining bytes — reject before allocating.
	if uint64(count)*4 > uint64(len(rest)) {
		return nil, fmt.Errorf("%w: count %d exceeds payload", ErrBadBatch, count)
	}
	records := make([][]byte, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: record %d header truncated", ErrBadBatch, i)
		}
		n := binary.LittleEndian.Uint32(rest[0:])
		rest = rest[4:]
		if uint64(len(rest)) < uint64(n) {
			return nil, fmt.Errorf("%w: record %d is %d of %d bytes", ErrBadBatch, i, len(rest), n)
		}
		records = append(records, rest[:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadBatch, len(rest))
	}
	return records, nil
}
