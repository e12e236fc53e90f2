package sdrad

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestNewPoolWithDomainPartialFailure is the regression test for the
// worker leak in NewPoolWithDomain: when worker i fails to initialize,
// the domains of workers 0..i-1 must be closed before the error returns.
func TestNewPoolWithDomainPartialFailure(t *testing.T) {
	var created []*poolWorker
	testHookWorkerCreated = func(i int, w *poolWorker) { created = append(created, w) }
	defer func() { testHookWorkerCreated = nil }()

	// The domain options run once per worker, in order; the second
	// worker gets an unsatisfiable heap (initial > max), so its
	// NewDomain fails after worker 0 is fully up.
	calls := 0
	sabotage := DomainOption(func(c *core.DomainConfig) {
		calls++
		if calls == 2 {
			c.HeapPages = 10
			c.MaxHeapPages = 5
		}
	})

	p, err := NewPoolWithDomain(3, []DomainOption{sabotage})
	if err == nil {
		_ = p.Close()
		t.Fatal("NewPoolWithDomain succeeded, want worker 1 to fail")
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error %q does not identify worker 1", err)
	}
	if len(created) != 1 {
		t.Fatalf("%d workers created before the failure, want 1", len(created))
	}

	// The fix: worker 0's warm domain was closed, so its supervisor has
	// no live domains and no mapped pages left.
	ms := created[0].sup.MemoryStats()
	if ms.Domains != 0 {
		t.Errorf("worker 0 leaked %d live domain(s) after construction failure", ms.Domains)
	}
	if ms.MappedPages != 0 {
		t.Errorf("worker 0 leaked %d mapped page(s) after construction failure", ms.MappedPages)
	}
}

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
