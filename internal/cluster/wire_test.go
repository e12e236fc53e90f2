package cluster

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestWireRequestRoundTrip encodes and decodes representative requests
// and asserts full structural fidelity.
func TestWireRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		clientID int
		req      workload.Request
	}{
		{"get", 7, workload.Request{Op: workload.OpGet, Key: "key-00000042"}},
		{"set", 0, workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v"), Flags: 99, TTL: 3 * time.Second}},
		{"set-empty-value", 3, workload.Request{Op: workload.OpSet, Key: "empty", Value: []byte{}}},
		{"delete", 12, workload.Request{Op: workload.OpDelete, Key: "gone"}},
		{"malicious", 5, workload.Request{Op: workload.OpSet, Key: "evil", Value: bytes.Repeat([]byte{0xff}, 300), Malicious: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := DecodeRequest(EncodeRequest(tc.clientID, tc.req))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if f.ClientID != tc.clientID {
				t.Errorf("clientID = %d, want %d", f.ClientID, tc.clientID)
			}
			if f.Req.Op != tc.req.Op || f.Req.Key != tc.req.Key ||
				f.Req.Flags != tc.req.Flags || f.Req.TTL != tc.req.TTL ||
				f.Req.Malicious != tc.req.Malicious {
				t.Errorf("request = %+v, want %+v", f.Req, tc.req)
			}
			if len(tc.req.Value) != len(f.Req.Value) || (len(tc.req.Value) > 0 && !bytes.Equal(f.Req.Value, tc.req.Value)) {
				t.Errorf("value = %v, want %v", f.Req.Value, tc.req.Value)
			}
		})
	}
}

// TestWireDecodeRejections asserts the codec rejects malformed frames
// with typed ErrWire, exercising each validation branch.
func TestWireDecodeRejections(t *testing.T) {
	good := EncodeRequest(1, workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v")})
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte{'X', 1, 1, 0}},
		{"bad-version", []byte{'S', 9, 1, 0}},
		{"wrong-frame-type", []byte{'S', 1, 3, 1, 1, 0}},
		{"truncated", good[:len(good)-1]},
		{"trailing", append(append([]byte{}, good...), 0)},
		{"bad-op", []byte{'S', 1, 1, 0, 9, 0, 0, 0, 1, 'k', 0}},
		{"huge-key", []byte{'S', 1, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0x7f}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequest(tc.b); !errors.Is(err, ErrWire) {
				t.Errorf("DecodeRequest(%v) err = %v, want ErrWire", tc.b, err)
			}
		})
	}
}

// FuzzWireDecode hardens the request decoder: arbitrary bytes must
// either decode cleanly or be rejected with an error — never panic —
// and an accepted frame must survive a re-encode round trip whole:
// client id, op, key, value, flags, TTL and the malicious bit.
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRequest(3, workload.Request{Op: workload.OpGet, Key: "key-00000001"}))
	f.Add(EncodeRequest(1, workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("value"), Flags: 7, TTL: time.Second}))
	f.Add(EncodeRequest(0, workload.Request{Op: workload.OpDelete, Key: "key-00000002", Malicious: true}))
	f.Add(EncodeRequest(1<<31, workload.Request{Op: workload.OpSet, Key: strings.Repeat("k", MaxWireKeyLen), Value: []byte("v"),
		Flags: ^uint32(0), TTL: time.Hour, Malicious: true}))
	f.Add([]byte{'S', 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, err := DecodeRequest(b); err == nil {
			fr2, err2 := DecodeRequest(EncodeRequest(fr.ClientID, fr.Req))
			if err2 != nil {
				t.Fatalf("re-encode of accepted frame rejected: %v", err2)
			}
			if fr2.ClientID != fr.ClientID || fr2.Req.Op != fr.Req.Op || fr2.Req.Key != fr.Req.Key ||
				!bytes.Equal(fr2.Req.Value, fr.Req.Value) || fr2.Req.Flags != fr.Req.Flags ||
				fr2.Req.TTL != fr.Req.TTL || fr2.Req.Malicious != fr.Req.Malicious {
				t.Fatalf("round trip diverged: %+v vs %+v", fr2, fr)
			}
		}
	})
}

// FuzzCheckRequest pins the router's in-memory bounds check to the wire
// codec it stands in for: for any client id, op, key, value, flags and
// TTL, checkRequest accepts exactly when DecodeRequest(EncodeRequest(…))
// does, refuses with the same ErrWire text, and what it accepts is what
// the codec would have delivered.
func FuzzCheckRequest(f *testing.F) {
	f.Add(int64(3), byte(workload.OpGet), "key-00000001", []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(1), byte(workload.OpSet), "k", []byte("value"), uint32(7), int64(time.Second), false)
	f.Add(int64(0), byte(workload.OpDelete), "key-00000002", []byte(nil), uint32(0), int64(0), true)
	f.Add(int64(-1), byte(workload.OpGet), "k", []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(1)<<31, byte(workload.OpGet), "k", []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(1)<<31+1, byte(workload.OpGet), "k", []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(0), byte(9), "k", []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(0), byte(workload.OpSet), "", []byte("v"), uint32(0), int64(0), false)
	f.Add(int64(0), byte(workload.OpGet), strings.Repeat("k", MaxWireKeyLen+1), []byte(nil), uint32(0), int64(0), false)
	f.Add(int64(0), byte(workload.OpSet), "k", []byte("v"), uint32(0), int64(1)<<62+1, false)
	f.Add(int64(0), byte(workload.OpSet), "k", []byte("v"), ^uint32(0), int64(-1), false)
	f.Fuzz(func(t *testing.T, clientID int64, op byte, key string, value []byte, flags uint32, ttl int64, malicious bool) {
		req := workload.Request{Op: workload.Op(op), Key: key, Value: value, Flags: flags, TTL: time.Duration(ttl), Malicious: malicious}
		err := checkRequest(int(clientID), req)
		fr, derr := DecodeRequest(EncodeRequest(int(clientID), req))
		if (err == nil) != (derr == nil) {
			t.Fatalf("checkRequest = %v, codec round trip = %v", err, derr)
		}
		if err != nil {
			if !errors.Is(err, ErrWire) || err.Error() != derr.Error() {
				t.Fatalf("checkRequest refused with %q, the codec with %q", err, derr)
			}
			return
		}
		if fr.ClientID != int(clientID) || fr.Req.Op != req.Op || fr.Req.Key != req.Key || !bytes.Equal(fr.Req.Value, req.Value) ||
			fr.Req.Flags != req.Flags || fr.Req.TTL != req.TTL || fr.Req.Malicious != req.Malicious {
			t.Fatalf("accepted %d %+v, the codec delivers %d %+v", clientID, req, fr.ClientID, fr.Req)
		}
	})
}
