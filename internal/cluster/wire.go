package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// This file is the cluster wire codec: the compact binary request
// frames a cross-process transport would ship to nodes. The router's
// hop to a node is in-process, so it does not round-trip the codec:
// checkRequest applies DecodeRequest's bounds to the request the router
// already holds, with the same ErrWire errors (FuzzCheckRequest pins
// the two to each other). The codec stays the fuzzed format a TCP
// transport would plug into, and the attack surface the FuzzWireDecode
// target hardens: DecodeRequest must reject arbitrary bytes with
// ErrWire, never panic or over-allocate.

// Wire framing constants.
const (
	// wireMagic is the first byte of every frame.
	wireMagic = 'S'
	// wireVersion is the codec version.
	wireVersion = 1
	// frameRequest is the request frame's type byte.
	frameRequest = 1
)

// Decode hardening bounds: a frame claiming more than these is
// rejected before any allocation is sized from attacker bytes.
const (
	// MaxWireKeyLen bounds a request frame's key.
	MaxWireKeyLen = 256
)

// ErrWire is the typed rejection for malformed wire frames.
var ErrWire = errors.New("cluster: malformed wire frame")

// RequestFrame is a decoded request frame: the submitting client and
// the key-value operation.
type RequestFrame struct {
	// ClientID is the submitting client (worker-domain placement).
	ClientID int
	// Req is the operation.
	Req workload.Request
}

// appendUvarint appends v as a uvarint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// uvarint reads a uvarint from b, returning the value and the bytes
// consumed (0 on malformed input).
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}

// checkRequest applies DecodeRequest's bounds to an in-memory request,
// in DecodeRequest's order and with its errors: it accepts exactly the
// requests DecodeRequest(EncodeRequest(clientID, req)) accepts. The
// op's byte, the malicious flag and the flags word always fit their
// fields, so only the client id, op, TTL, key and value are checked.
func checkRequest(clientID int, req workload.Request) error {
	if uint64(clientID) > uint64(1)<<31 { // a negative id wraps above the bound
		return fmt.Errorf("%w: client id", ErrWire)
	}
	if req.Op != workload.OpGet && req.Op != workload.OpSet && req.Op != workload.OpDelete {
		return fmt.Errorf("%w: unknown op %d", ErrWire, byte(req.Op))
	}
	if uint64(req.TTL) > uint64(1)<<62 { // so does a negative TTL
		return fmt.Errorf("%w: ttl", ErrWire)
	}
	if len(req.Key) == 0 || len(req.Key) > MaxWireKeyLen {
		return fmt.Errorf("%w: key length", ErrWire)
	}
	if len(req.Value) > kvstore.MaxValueSize {
		return fmt.Errorf("%w: value length", ErrWire)
	}
	return nil
}

// EncodeRequest renders one forwarded request as a wire frame.
//
//lint:unusedexport the reference codec FuzzCheckRequest holds checkRequest to
func EncodeRequest(clientID int, req workload.Request) []byte {
	out := make([]byte, 0, 16+len(req.Key)+len(req.Value))
	out = append(out, wireMagic, wireVersion, frameRequest)
	out = appendUvarint(out, uint64(clientID))
	out = append(out, byte(req.Op))
	mal := byte(0)
	if req.Malicious {
		mal = 1
	}
	out = append(out, mal)
	out = appendUvarint(out, uint64(req.Flags))
	out = appendUvarint(out, uint64(req.TTL))
	out = appendUvarint(out, uint64(len(req.Key)))
	out = append(out, req.Key...)
	out = appendUvarint(out, uint64(len(req.Value)))
	out = append(out, req.Value...)
	return out
}

// DecodeRequest parses a request frame, rejecting malformed or
// out-of-bounds input with ErrWire.
//
//lint:unusedexport the reference codec FuzzCheckRequest holds checkRequest to
func DecodeRequest(b []byte) (RequestFrame, error) {
	var f RequestFrame
	if len(b) < 3 || b[0] != wireMagic || b[1] != wireVersion || b[2] != frameRequest {
		return f, fmt.Errorf("%w: bad header", ErrWire)
	}
	b = b[3:]
	cid, n := uvarint(b)
	if n == 0 || cid > uint64(1)<<31 {
		return f, fmt.Errorf("%w: client id", ErrWire)
	}
	b = b[n:]
	if len(b) < 2 {
		return f, fmt.Errorf("%w: truncated op", ErrWire)
	}
	op := workload.Op(b[0])
	if op != workload.OpGet && op != workload.OpSet && op != workload.OpDelete {
		return f, fmt.Errorf("%w: unknown op %d", ErrWire, b[0])
	}
	mal := b[1]
	if mal > 1 {
		return f, fmt.Errorf("%w: malicious flag", ErrWire)
	}
	b = b[2:]
	flags, n := uvarint(b)
	if n == 0 || flags > uint64(^uint32(0)) {
		return f, fmt.Errorf("%w: flags", ErrWire)
	}
	b = b[n:]
	ttl, n := uvarint(b)
	if n == 0 || ttl > uint64(1)<<62 {
		return f, fmt.Errorf("%w: ttl", ErrWire)
	}
	b = b[n:]
	klen, n := uvarint(b)
	if n == 0 || klen == 0 || klen > MaxWireKeyLen {
		return f, fmt.Errorf("%w: key length", ErrWire)
	}
	b = b[n:]
	if uint64(len(b)) < klen {
		return f, fmt.Errorf("%w: truncated key", ErrWire)
	}
	key := string(b[:klen])
	b = b[klen:]
	vlen, n := uvarint(b)
	if n == 0 || vlen > kvstore.MaxValueSize {
		return f, fmt.Errorf("%w: value length", ErrWire)
	}
	b = b[n:]
	if uint64(len(b)) != vlen {
		return f, fmt.Errorf("%w: value length mismatch", ErrWire)
	}
	f.ClientID = int(cid)
	f.Req = workload.Request{
		Op:        op,
		Key:       key,
		Flags:     uint32(flags),
		TTL:       time.Duration(ttl),
		Malicious: mal == 1,
	}
	if vlen > 0 {
		f.Req.Value = append([]byte(nil), b[:vlen]...)
	}
	return f, nil
}
