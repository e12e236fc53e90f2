package sdrad

import (
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
