package main

import (
	"context"
	"errors"
	"testing"

	sdrad "repro"
)

// TestPipelineExample runs the example end to end — it must keep
// working as the API evolves.
func TestPipelineExample(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncSubmitFlushEndToEnd drives the asynchronous pipeline shape
// this example's domains feed into at scale: producers Submit stages
// into an AsyncPool, a misbehaving stage is contained without touching
// its neighbors, backpressure sheds excess load as typed overloads, and
// Flush drains everything before shutdown.
func TestAsyncSubmitFlushEndToEnd(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ap.Close() }()

	// Stage 1: fan 40 records through isolated processing, one Submit
	// each; record #13 is the poisoned input.
	futs := make([]*sdrad.Future, 40)
	for i := range futs {
		i := i
		futs[i] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
			rec := c.MustAlloc(64)
			c.MustStore(rec, []byte("record-payload"))
			if i == 13 {
				c.MustStore64(0xdead_0000, 1) // wild write: the contained bug
			}
			c.MustFree(rec)
			return nil
		})
	}

	// Stage 2: Flush is the pipeline barrier — after it, every future
	// is resolved and can be harvested without blocking.
	ap.Flush()
	contained, ok := 0, 0
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d unresolved after Flush", i)
		}
		err := f.Err()
		switch {
		case i == 13:
			if _, isV := sdrad.IsViolation(err); !isV {
				t.Fatalf("poisoned record: %v, want contained violation", err)
			}
			contained++
		case err != nil:
			t.Fatalf("record %d poisoned by neighbor: %v", i, err)
		default:
			ok++
		}
	}
	if ok != 39 || contained != 1 {
		t.Fatalf("ok=%d contained=%d, want 39/1", ok, contained)
	}

	// The pool dispatched every submission exactly once (a poisoned
	// batch's serial replays do not count again).
	var requests uint64
	for _, r := range pool.Stats().Requests {
		requests += r
	}
	if requests != 40 {
		t.Fatalf("pool dispatched %d calls, want 40", requests)
	}

	// After Close the pipeline refuses new work with a typed error.
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ap.Submit(context.Background(), func(*sdrad.Ctx) error { return nil }).Err(); !errors.Is(err, sdrad.ErrAsyncClosed) {
		t.Fatalf("Submit after Close = %v, want ErrAsyncClosed", err)
	}
}
