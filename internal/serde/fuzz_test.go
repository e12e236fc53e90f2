package serde

import (
	"bytes"
	"testing"
)

// FuzzDecode checks that no codec panics on arbitrary input, and that
// anything a codec accepts re-encodes and re-decodes stably.
func FuzzDecode(f *testing.F) {
	for _, c := range Codecs() {
		if enc, err := c.Encode([]any{int64(-5), "s", []byte{1, 2}}); err == nil {
			f.Add(enc)
		}
		if enc, err := c.Encode([]any{[]byte("payload")}); err == nil {
			f.Add(enc)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff})
	// The property: re-encoding a decoded buffer is a fixed point, so
	// encode(decode(encode(decode(in)))) is byte-identical to
	// encode(decode(in)). It compares bytes, not values: a decoded NaN
	// is never equal to itself.
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, c := range Codecs() {
			vals, err := c.Decode(in)
			if err != nil {
				continue
			}
			enc, err := c.Encode(vals)
			if err != nil {
				t.Errorf("%s: decoded values failed to re-encode: %v", c.Name(), err)
				continue
			}
			again, err := c.Decode(enc)
			if err != nil {
				t.Errorf("%s: re-encoded bytes failed to decode: %v", c.Name(), err)
				continue
			}
			enc2, err := c.Encode(again)
			if err != nil {
				t.Errorf("%s: second decode failed to re-encode: %v", c.Name(), err)
				continue
			}
			if !bytes.Equal(enc, enc2) {
				t.Errorf("%s: re-encoding is not a fixed point: %x then %x", c.Name(), enc, enc2)
			}
		}
	})
}
