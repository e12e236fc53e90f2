package sdrad

import (
	"context"
	"testing"
)

// TestRetiredWorkerNeverRedispatched pins the shrink contract from the
// inside: once Resize unpublishes a worker, no dispatch path — least-
// loaded, affinity-pinned, or batched — can reach it again. Its request
// counter is frozen and its retired flag is terminal.
func TestRetiredWorkerNeverRedispatched(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	// Touch every worker so each has a non-zero request history.
	for w := 0; w < 4; w++ {
		if err := p.Do(context.Background(), func(c *Ctx) error { return nil }, WithWorker(w)); err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	victims := p.snapshot()[2:] // shrink removes the tail
	if err := p.Resize(2); err != nil {
		t.Fatalf("Resize(2): %v", err)
	}
	frozen := make([]uint64, len(victims))
	for i, v := range victims {
		v.mu.Lock()
		if !v.retired {
			t.Errorf("victim %d not marked retired after shrink", i)
		}
		v.mu.Unlock()
		frozen[i] = v.requests.Load()
	}

	// Hammer every dispatch path, including affinity indices that used
	// to map onto the retired workers (they now wrap modulo the live
	// set) and batched execution.
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := p.Do(ctx, func(c *Ctx) error { return nil }); err != nil {
			t.Fatalf("Do %d: %v", i, err)
		}
		if err := p.Do(ctx, func(c *Ctx) error { return nil }, WithWorker(2+i%2)); err != nil {
			t.Fatalf("pinned Do %d: %v", i, err)
		}
	}
	fns := make([]func(*Ctx) error, 8)
	for i := range fns {
		fns[i] = func(c *Ctx) error { return nil }
	}
	for _, err := range p.DoBatch(ctx, fns, WithWorker(3)) {
		if err != nil {
			t.Fatalf("batched call: %v", err)
		}
	}

	for i, v := range victims {
		if got := v.requests.Load(); got != frozen[i] {
			t.Errorf("retired worker %d executed %d new requests after shrink", i, got-frozen[i])
		}
		if got := v.inflight.Load(); got != 0 {
			t.Errorf("retired worker %d reports %d inflight", i, got)
		}
	}
}
