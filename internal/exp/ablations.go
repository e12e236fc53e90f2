package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/vclock"
)

// This file implements the ablation experiments of DESIGN.md §5 as
// harness entries (A1..A3), measured in virtual time like E1..E8. The
// root-level testing.B benchmarks exercise the same axes in wall-clock.

// rewindTimeWith measures one rewind under a given system config and
// domain heap size.
func rewindTimeWith(cfg core.Config, heapPages int) (time.Duration, error) {
	sys := core.NewSystem(cfg)
	if _, err := sys.InitDomain(1, core.DomainConfig{HeapPages: heapPages}); err != nil {
		return 0, err
	}
	err := sys.Enter(1, func(c *core.DomainCtx) error {
		c.MustStore64(0xdead_beef_f000, 1)
		return nil
	})
	if _, ok := core.IsViolation(err); !ok {
		return 0, fmt.Errorf("expected violation, got %v", err)
	}
	cycles, err := sys.RewindCycles(1)
	if err != nil {
		return 0, err
	}
	return vclock.CyclesToDuration(cycles, sys.Clock().Model().CPUHz), nil
}

// runA1 — discard strategy: scrubbing vs fast discard across heap sizes.
func (r Runner) runA1() (*Result, error) {
	t := metrics.NewTable("A1 — discard strategy: page scrub vs fast discard",
		"domain heap", "rewind (zeroing)", "rewind (fast)", "speedup")
	for _, pages := range []int{8, 64, 512, 4096} {
		zero := core.DefaultConfig()
		fast := core.DefaultConfig()
		fast.ZeroOnDiscard = false
		tz, err := rewindTimeWith(zero, pages)
		if err != nil {
			return nil, err
		}
		tf, err := rewindTimeWith(fast, pages)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d KiB", pages*4),
			metrics.FormatDuration(tz),
			metrics.FormatDuration(tf),
			fmt.Sprintf("%.1f×", float64(tz)/float64(tf)),
		)
	}
	t.Caption = "zeroing scrubs discarded pages (confidentiality of dead data) at a per-page cost; fast discard is O(1) but leaves stale bytes"
	return &Result{Table: t, Notes: "both variants zero fresh allocations, so integrity is unaffected; only confidentiality of discarded data differs"}, nil
}

// runA2 — domain granularity: requests per domain entry.
func (r Runner) runA2() (*Result, error) {
	n := r.requests(20_000)
	t := metrics.NewTable("A2 — compartment granularity: requests batched per domain entry",
		"batch", "ns/request", "entry overhead amortized")
	var base float64
	for _, batch := range []int{1, 4, 16, 64} {
		sys := core.NewSystem(core.DefaultConfig())
		if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
			return nil, err
		}
		start := sys.Clock().Cycles()
		for i := 0; i < n; i += batch {
			cnt := batch
			if rem := n - i; rem < cnt {
				cnt = rem
			}
			err := sys.Enter(1, func(c *core.DomainCtx) error {
				for j := 0; j < cnt; j++ {
					p := c.MustAlloc(128)
					c.MustStore(p, make([]byte, 128))
					c.MustFree(p)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
		perReq := float64(sys.Clock().Since(start).Nanoseconds()) / float64(n)
		if batch == 1 {
			base = perReq
		}
		t.AddRow(batch, fmt.Sprintf("%.1f", perReq),
			fmt.Sprintf("%.1f%%", (base-perReq)/base*100))
	}
	t.Caption = "per-request domains give the strongest isolation; batching amortizes the enter/exit cost at the price of a larger blast radius per rewind"
	return &Result{Table: t, Notes: "the kvstore/httpd servers place each client on one of at most 12 worker domains (client id mod workers), pristine between requests, so a rewind discards one request"}, nil
}

// runA3 — detection surface: cost of the exit-time integrity sweep as a
// function of live heap objects.
func (r Runner) runA3() (*Result, error) {
	n := r.requests(5_000)
	t := metrics.NewTable("A3 — detection cost: exit-time heap canary sweep",
		"live chunks", "ns/entry (sweep on)", "ns/entry (sweep off)", "sweep cost")
	for _, chunks := range []int{0, 16, 128, 1024} {
		times := map[bool]float64{}
		for _, sweep := range []bool{true, false} {
			cfg := core.DefaultConfig()
			cfg.IntegrityCheckOnExit = sweep
			sys := core.NewSystem(cfg)
			if _, err := sys.InitDomain(1, core.DomainConfig{MaxHeapPages: 1 << 14}); err != nil {
				return nil, err
			}
			// Populate the live set once.
			if err := sys.Enter(1, func(c *core.DomainCtx) error {
				for j := 0; j < chunks; j++ {
					c.MustAlloc(64)
				}
				return nil
			}); err != nil && chunks > 0 {
				return nil, err
			}
			start := sys.Clock().Cycles()
			for i := 0; i < n; i++ {
				if err := sys.Enter(1, func(*core.DomainCtx) error { return nil }); err != nil {
					return nil, err
				}
			}
			times[sweep] = float64(sys.Clock().Since(start).Nanoseconds()) / float64(n)
		}
		t.AddRow(chunks,
			fmt.Sprintf("%.1f", times[true]),
			fmt.Sprintf("%.1f", times[false]),
			fmt.Sprintf("%.1f ns", times[true]-times[false]))
	}
	t.Caption = "the sweep walks every live chunk's canaries on clean exit; short-lived request domains keep the live set (and this cost) small"
	return &Result{Table: t, Notes: "disabling the sweep trades heap-overflow detection latency (caught at next free instead of at exit) for per-entry cost"}, nil
}
