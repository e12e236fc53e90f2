// Package tlslib is the OpenSSL-stand-in of the reproduction: a small
// "legacy C library" that parses TLS-style records and heartbeat
// messages, reached through the SDRaD-FFI bridge exactly as the paper's
// §III proposes for unsafe code behind Rust FFI.
//
// The library deliberately contains the Heartbleed bug class
// (CVE-2014-0160): the heartbeat handler trusts the attacker-controlled
// payload_length field and reads that many bytes from a much smaller
// buffer. Run natively, that leaks (or faults on) adjacent memory; run
// inside an SDRaD domain, the out-of-bounds read hits a page the domain's
// protection key does not cover and the domain is rewound, with the
// caller's alternate action producing a clean error instead of a leak or
// a crash. A fixed handler (the patched bounds check) is provided for the
// overhead comparison.
//
//lint:allow unusedexport only its tests call it; serving it from a binary or deleting it is an open ROADMAP item
package tlslib

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ffi"
)

// Record and heartbeat framing constants (TLS 1.2 style).
const (
	// RecordHeaderLen is type(1) + version(2) + length(2).
	RecordHeaderLen = 5
	// HeartbeatHeaderLen is type(1) + payload_length(2).
	HeartbeatHeaderLen = 3
	// PaddingLen is the mandatory heartbeat padding.
	PaddingLen = 16
	// MaxRecordLen bounds one record's payload.
	MaxRecordLen = 1 << 14
)

// Record content types.
const (
	TypeHandshake = 22
	TypeHeartbeat = 24
)

// Heartbeat message types.
const (
	HeartbeatRequest  = 1
	HeartbeatResponse = 2
)

// Sentinel errors.
var (
	// ErrBadRecord is returned for malformed records.
	ErrBadRecord = errors.New("tlslib: malformed record")
	// ErrBadHeartbeat is returned by the *fixed* heartbeat handler when
	// payload_length exceeds the actual payload (RFC 6520 silent-discard
	// condition).
	ErrBadHeartbeat = errors.New("tlslib: heartbeat length exceeds record")
)

// Record is a parsed TLS record.
type Record struct {
	Type    byte
	Version uint16
	Payload []byte
}

// EncodeRecord renders a record to wire format.
func EncodeRecord(r Record) ([]byte, error) {
	if len(r.Payload) > MaxRecordLen {
		return nil, fmt.Errorf("%w: payload %d > max", ErrBadRecord, len(r.Payload))
	}
	out := make([]byte, RecordHeaderLen+len(r.Payload))
	out[0] = r.Type
	binary.BigEndian.PutUint16(out[1:3], r.Version)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(r.Payload)))
	copy(out[RecordHeaderLen:], r.Payload)
	return out, nil
}

// DecodeRecord parses wire bytes into a Record.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < RecordHeaderLen {
		return Record{}, fmt.Errorf("%w: short header (%d bytes)", ErrBadRecord, len(b))
	}
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if n > MaxRecordLen {
		return Record{}, fmt.Errorf("%w: declared length %d > max", ErrBadRecord, n)
	}
	if len(b) < RecordHeaderLen+n {
		return Record{}, fmt.Errorf("%w: declared %d, have %d", ErrBadRecord, n, len(b)-RecordHeaderLen)
	}
	return Record{
		Type:    b[0],
		Version: binary.BigEndian.Uint16(b[1:3]),
		Payload: b[RecordHeaderLen : RecordHeaderLen+n],
	}, nil
}

// BuildHeartbeat renders a heartbeat request record whose header declares
// declaredLen payload bytes while actually carrying payload. Setting
// declaredLen > len(payload) is the Heartbleed attack.
func BuildHeartbeat(payload []byte, declaredLen int) ([]byte, error) {
	msg := make([]byte, HeartbeatHeaderLen+len(payload)+PaddingLen)
	msg[0] = HeartbeatRequest
	binary.BigEndian.PutUint16(msg[1:3], uint16(declaredLen))
	copy(msg[HeartbeatHeaderLen:], payload)
	return EncodeRecord(Record{Type: TypeHeartbeat, Version: 0x0303, Payload: msg})
}

// heartbeatVulnerable is the buggy handler: it copies declaredLen bytes
// out of the in-domain message buffer without checking the actual length,
// reading out of bounds through the domain context — the faithful
// Heartbleed data flow against simulated memory.
func heartbeatVulnerable(c *core.DomainCtx, rec []byte) ([]byte, error) {
	if len(rec) < HeartbeatHeaderLen {
		return nil, fmt.Errorf("%w: short heartbeat", ErrBadRecord)
	}
	declared := int(binary.BigEndian.Uint16(rec[1:3]))
	// "Allocate" the message in domain memory, as the C library would.
	buf := c.MustAlloc(len(rec))
	c.MustStore(buf, rec)
	// BUG: memcpy(bp, pl, payload) with attacker-controlled payload —
	// reads `declared` bytes from a len(rec)-byte buffer.
	leak := make([]byte, declared)
	c.MustLoad(buf+HeartbeatHeaderLen, leak)
	c.MustFree(buf)
	resp := make([]byte, HeartbeatHeaderLen+declared+PaddingLen)
	resp[0] = HeartbeatResponse
	binary.BigEndian.PutUint16(resp[1:3], uint16(declared))
	copy(resp[HeartbeatHeaderLen:], leak)
	return resp, nil
}

// heartbeatFixed is the patched handler with the bounds check.
func heartbeatFixed(c *core.DomainCtx, rec []byte) ([]byte, error) {
	if len(rec) < HeartbeatHeaderLen+PaddingLen {
		return nil, fmt.Errorf("%w: short heartbeat", ErrBadRecord)
	}
	declared := int(binary.BigEndian.Uint16(rec[1:3]))
	if HeartbeatHeaderLen+declared+PaddingLen > len(rec) {
		return nil, fmt.Errorf("%w: declared %d, record %d", ErrBadHeartbeat, declared, len(rec))
	}
	buf := c.MustAlloc(len(rec))
	c.MustStore(buf, rec)
	pl := make([]byte, declared)
	c.MustLoad(buf+HeartbeatHeaderLen, pl)
	c.MustFree(buf)
	resp := make([]byte, HeartbeatHeaderLen+declared+PaddingLen)
	resp[0] = HeartbeatResponse
	binary.BigEndian.PutUint16(resp[1:3], uint16(declared))
	copy(resp[HeartbeatHeaderLen:], pl)
	return resp, nil
}

// Function names registered on the bridge.
const (
	// FuncHeartbeat is the vulnerable handler.
	FuncHeartbeat = "tls_heartbeat"
	// FuncHeartbeatFixed is the patched handler.
	FuncHeartbeatFixed = "tls_heartbeat_fixed"
	// FuncHandshakeDigest is a benign compute-heavy handler used for
	// overhead measurements.
	FuncHandshakeDigest = "tls_handshake_digest"
)

// Register installs the library's functions on an FFI bridge. The
// heartbeat handlers get an alternate action that reports a clean
// protocol error instead of leaking or crashing.
func Register(b *ffi.Bridge) error {
	regs := []ffi.Registration{
		{
			Name: FuncHeartbeat,
			Fn: func(c *core.DomainCtx, args []any) ([]any, error) {
				rec, err := argBytes(args, 0)
				if err != nil {
					return nil, err
				}
				resp, err := heartbeatVulnerable(c, rec)
				if err != nil {
					return nil, err
				}
				return []any{resp}, nil
			},
			Fallback: func(args []any, viol *core.ViolationError) ([]any, error) {
				// Alternate action: drop the heartbeat, report a clean
				// error (RFC 6520 says discard silently).
				return []any{[]byte(nil)}, nil
			},
		},
		{
			Name: FuncHeartbeatFixed,
			Fn: func(c *core.DomainCtx, args []any) ([]any, error) {
				rec, err := argBytes(args, 0)
				if err != nil {
					return nil, err
				}
				resp, err := heartbeatFixed(c, rec)
				if err != nil {
					return nil, err
				}
				return []any{resp}, nil
			},
		},
		{
			Name: FuncHandshakeDigest,
			Fn: func(c *core.DomainCtx, args []any) ([]any, error) {
				data, err := argBytes(args, 0)
				if err != nil {
					return nil, err
				}
				return []any{int64(digest(c, data))}, nil
			},
		},
	}
	for _, r := range regs {
		if err := b.Register(r); err != nil {
			return fmt.Errorf("tlslib: %w", err)
		}
	}
	return nil
}

// digest runs an FNV-style hash over the data staged in domain memory —
// a stand-in for the transcript hashing of a handshake.
func digest(c *core.DomainCtx, data []byte) uint64 {
	if len(data) == 0 {
		return 14695981039346656037
	}
	buf := c.MustAlloc(len(data))
	c.MustStore(buf, data)
	tmp := make([]byte, len(data))
	c.MustLoad(buf, tmp)
	c.MustFree(buf)
	h := uint64(14695981039346656037)
	for _, b := range tmp {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func argBytes(args []any, i int) ([]byte, error) {
	if i >= len(args) {
		return nil, fmt.Errorf("tlslib: missing argument %d", i)
	}
	b, ok := args[i].([]byte)
	if !ok {
		return nil, fmt.Errorf("tlslib: argument %d is %T, want []byte", i, args[i])
	}
	return b, nil
}
