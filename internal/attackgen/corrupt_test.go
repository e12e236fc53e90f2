package attackgen

import (
	"bytes"
	"testing"
)

func TestCorruptIsDeterministic(t *testing.T) {
	a, b := NewCorruptor(7), NewCorruptor(7)
	payload := []byte("set key-0001 0 0 5\r\nhello\r\n")
	for i := 0; i < 200; i++ {
		ba, ma := a.Corrupt(payload)
		bb, mb := b.Corrupt(payload)
		if ma != mb || !bytes.Equal(ba, bb) {
			t.Fatalf("iteration %d: same seed diverged: %v/%q vs %v/%q", i, ma, ba, mb, bb)
		}
	}
}

func TestCorruptNeverMutatesInput(t *testing.T) {
	c := NewCorruptor(3)
	payload := []byte("get key-0042\r\n")
	orig := append([]byte{}, payload...)
	for i := 0; i < 100; i++ {
		c.Corrupt(payload)
		if !bytes.Equal(payload, orig) {
			t.Fatalf("iteration %d: input mutated to %q", i, payload)
		}
	}
}

func TestCorruptChangesPayload(t *testing.T) {
	c := NewCorruptor(11)
	payload := []byte("delete key-0007\r\n")
	changed := 0
	for i := 0; i < 100; i++ {
		out, _ := c.Corrupt(payload)
		if !bytes.Equal(out, payload) {
			changed++
		}
	}
	// A bit flip or zero fill can in principle be a no-op only when it
	// lands on matching bytes; with this payload every mutation differs.
	if changed != 100 {
		t.Errorf("only %d/100 corruptions changed the payload", changed)
	}
}

func TestCorruptEmptyPayload(t *testing.T) {
	c := NewCorruptor(5)
	out, m := c.Corrupt(nil)
	if m != MutGarbageInsert || len(out) == 0 {
		t.Errorf("empty payload: got %v len=%d, want garbage-insert non-empty", m, len(out))
	}
}

func TestMalformedCorporaDeterministic(t *testing.T) {
	kv1, kv2 := MalformedKVCorpus(42, 32), MalformedKVCorpus(42, 32)
	if len(kv1) != 32 {
		t.Fatalf("kv corpus size %d", len(kv1))
	}
	for i := range kv1 {
		if !bytes.Equal(kv1[i], kv2[i]) {
			t.Fatalf("kv corpus entry %d differs", i)
		}
	}
	h1, h2 := MalformedHTTPCorpus(42, 32), MalformedHTTPCorpus(42, 32)
	for i := range h1 {
		if !bytes.Equal(h1[i], h2[i]) {
			t.Fatalf("http corpus entry %d differs", i)
		}
	}
}

func TestMutationStrings(t *testing.T) {
	for _, m := range Mutations() {
		if s := m.String(); s == "" || s[0] == 'M' {
			t.Errorf("mutation %d has bad name %q", m, s)
		}
	}
}
