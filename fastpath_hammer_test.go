package sdrad_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	sdrad "repro"
)

// TestFastPathPoolHammer drives heavy concurrent memory traffic through
// a Supervisor pool under -race: every worker's private machine churns
// its radix table, software TLB, and dirty bitmap (alloc/store/load/free,
// violations that rewind, and explicit discards) from its own goroutine,
// while aggregate stats are read concurrently. The mem internals are
// per-worker (the simulation is single-core per machine), so the race
// detector proves the pool keeps them confined.
func TestFastPathPoolHammer(t *testing.T) {
	const (
		workers = 4
		gs      = 8
		iters   = 300
	)
	pool, err := sdrad.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 7 {
				case 6:
					// A violation: wild write, contained by rewind +
					// dirty-bounded discard.
					err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
						p := c.MustAlloc(512)
						c.MustStore(p, make([]byte, 512))
						c.MustStore64(0xdead0000, 1)
						return nil
					})
					if _, ok := sdrad.IsViolation(err); !ok {
						t.Errorf("g%d i%d: want violation, got %v", g, i, err)
						return
					}
				default:
					size := 64 + (g*131+i*17)%2048
					err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
						p := c.MustAlloc(size)
						buf := make([]byte, size)
						for j := range buf {
							buf[j] = byte(g + i + j)
						}
						c.MustStore(p, buf)
						rd := make([]byte, size)
						c.MustLoad(p, rd)
						for j := range rd {
							if rd[j] != buf[j] {
								return fmt.Errorf("readback mismatch at %d", j)
							}
						}
						c.MustFree(p)
						return nil
					})
					if err != nil {
						t.Errorf("g%d i%d: %v", g, i, err)
						return
					}
				}
				if i%50 == 0 {
					// Concurrent introspection of the aggregated stats.
					ms := pool.MemoryStats()
					if ms.TLBHits == 0 && i > 0 {
						t.Errorf("g%d i%d: no TLB hits across pool", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	ms := pool.MemoryStats()
	if ms.TLBHits == 0 || ms.TLBMisses == 0 {
		t.Errorf("TLB counters not moving: %+v", ms)
	}
	if ms.Faults == 0 {
		t.Error("violation runs produced no faults")
	}
	// Every run ends in a discard, so dirtiness stays bounded by the
	// workers' stacks + current working set, far below cumulative traffic.
	if ms.DirtyPages > ms.MappedPages {
		t.Errorf("DirtyPages %d exceeds MappedPages %d", ms.DirtyPages, ms.MappedPages)
	}
}
