// Package attackgen synthesizes deterministic malformed payloads:
// protocol lines and serialized codec buffers mutated the way a fuzzer
// or a hostile client would mutate them, so the campaign engine
// (internal/campaign) and the parsers' fuzz seeds can exercise the
// reject paths without a network in the loop.
//
// Every mutation is a pure function of the Corruptor's PRNG stream, so a
// campaign seeded twice produces bit-identical malformed payloads.
package attackgen

import (
	"fmt"

	"repro/internal/workload"
)

// Mutation identifies one way a payload can be malformed.
type Mutation uint8

// Mutations, in schedule order.
const (
	// MutBitFlip flips a single bit somewhere in the payload.
	MutBitFlip Mutation = iota + 1
	// MutTruncate cuts the payload short (framing underrun).
	MutTruncate
	// MutInflateLength corrupts a digit run, the classic length-field
	// inflation against text protocols ("set k 0 0 5" → huge count).
	MutInflateLength
	// MutGarbageInsert splices random bytes into the middle.
	MutGarbageInsert
	// MutZeroFill overwrites a span with NUL bytes.
	MutZeroFill
)

// String implements fmt.Stringer.
func (m Mutation) String() string {
	switch m {
	case MutBitFlip:
		return "bit-flip"
	case MutTruncate:
		return "truncate"
	case MutInflateLength:
		return "inflate-length"
	case MutGarbageInsert:
		return "garbage-insert"
	case MutZeroFill:
		return "zero-fill"
	default:
		return fmt.Sprintf("Mutation(%d)", uint8(m))
	}
}

// Mutations returns all mutation kinds.
func Mutations() []Mutation {
	return []Mutation{MutBitFlip, MutTruncate, MutInflateLength, MutGarbageInsert, MutZeroFill}
}

// Corruptor deterministically malforms payloads. Create with
// NewCorruptor; not safe for concurrent use.
type Corruptor struct {
	rng *workload.RNG
}

// NewCorruptor returns a corruptor seeded with seed.
func NewCorruptor(seed uint64) *Corruptor {
	return &Corruptor{rng: workload.NewRNG(seed)}
}

// Corrupt returns a malformed copy of payload (the input is never
// modified) and the mutation applied. Empty payloads get garbage
// inserted, so the result is always non-trivial.
func (c *Corruptor) Corrupt(payload []byte) ([]byte, Mutation) {
	muts := Mutations()
	m := muts[c.rng.Intn(len(muts))]
	if len(payload) == 0 {
		m = MutGarbageInsert
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	switch m {
	case MutBitFlip:
		i := c.rng.Intn(len(out))
		out[i] ^= 1 << uint(c.rng.Intn(8))
	case MutTruncate:
		out = out[:c.rng.Intn(len(out))]
	case MutInflateLength:
		// Find a digit and replace it with a digit run that inflates any
		// length field it sits in. Payloads without digits degrade to a
		// bit flip.
		at := -1
		for i, b := range out {
			if b >= '0' && b <= '9' {
				at = i
				break
			}
		}
		if at < 0 {
			i := c.rng.Intn(len(out))
			out[i] ^= 1 << uint(c.rng.Intn(8))
			m = MutBitFlip
			break
		}
		inflated := append([]byte{}, out[:at]...)
		inflated = append(inflated, []byte(fmt.Sprintf("%d", 1<<40+c.rng.Intn(1<<20)))...)
		inflated = append(inflated, out[at+1:]...)
		out = inflated
	case MutGarbageInsert:
		n := 1 + c.rng.Intn(16)
		garbage := make([]byte, n)
		c.rng.Bytes(garbage)
		at := 0
		if len(out) > 0 {
			at = c.rng.Intn(len(out) + 1)
		}
		spliced := append([]byte{}, out[:at]...)
		spliced = append(spliced, garbage...)
		spliced = append(spliced, out[at:]...)
		out = spliced
	case MutZeroFill:
		from := c.rng.Intn(len(out))
		to := from + 1 + c.rng.Intn(len(out)-from)
		for i := from; i < to; i++ {
			out[i] = 0
		}
	}
	return out, m
}

// MalformedKVCorpus returns n deterministic malformed memcached-text
// command payloads: well-formed commands from a seeded KV workload run
// through the corruptor. The corpus seeds the kvstore parser fuzz target
// and its campaign-mirror test.
//
//lint:unusedexport fuzz seeds shared by other packages' tests
func MalformedKVCorpus(seed uint64, n int) [][]byte {
	c := NewCorruptor(seed)
	gen, err := workload.NewKV(workload.KVConfig{Seed: seed, Keys: 64, ValueSize: 24})
	if err != nil {
		// KVConfig defaults are valid by construction.
		panic(err)
	}
	out := make([][]byte, 0, n)
	for len(out) < n {
		bad, _ := c.Corrupt(workload.RenderKVText(gen.Next()))
		out = append(out, bad)
	}
	return out
}

// MalformedHTTPCorpus returns n deterministic malformed HTTP request
// heads, for the httpd parser fuzz target and its campaign-mirror test.
//
//lint:unusedexport fuzz seeds shared by other packages' tests
func MalformedHTTPCorpus(seed uint64, n int) [][]byte {
	c := NewCorruptor(seed)
	gen, err := workload.NewHTTP(workload.HTTPConfig{Seed: seed})
	if err != nil {
		// HTTPConfig defaults are valid by construction.
		panic(err)
	}
	out := make([][]byte, 0, n)
	for len(out) < n {
		bad, _ := c.Corrupt(gen.Next().Raw)
		out = append(out, bad)
	}
	return out
}
