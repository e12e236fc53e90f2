package sdrad

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
)

// This file wires the resilience-campaign engine (internal/campaign) to
// the three public Runner implementations. The engine is deliberately
// backend-agnostic — it sees only campaign.Executor — and this file
// provides the production executors: per-worker Domains on one
// Supervisor, a Pool with worker-pinned dispatch, and per-worker FFI
// Bridges. RunCampaign is the public entry point; cmd/sdrad-campaign is
// the CLI around it.

// RunCampaign executes a deterministic resilience campaign against the
// real Domain/Pool/Bridge backends and returns its structured trace.
// Same cfg ⇒ byte-identical Trace.JSON(). cfg.Batch > 1 coalesces each
// wave's requests into per-worker batches, so pool-target scenarios
// exercise the amortized batch entry: outcomes and survivor digests
// stay those of the serial run, virtual cycles fall. See DESIGN.md §8
// for the scenario schema and the differential oracles built on this
// entry point.
func RunCampaign(cfg campaign.Config) (*campaign.Trace, error) {
	return campaign.Run(cfg, CampaignFactory())
}

// CheckCampaignOracles runs every differential oracle (same-seed
// determinism, worker-count invariance, benign cycle parity,
// batched==serial and resize outcome/digest equality) for cfg against
// the real backends, over one serial base run whatever cfg.Batch says.
func CheckCampaignOracles(cfg campaign.Config, workerCounts ...int) ([]campaign.OracleResult, error) {
	return campaign.CheckAll(cfg, CampaignFactory(), workerCounts...)
}

// CampaignFactory provisions campaign executors over the public Runner
// implementations. Campaign domains use a fixed 8-page heap / 4-page
// stack (the servers' worker shape), so traces are comparable across
// backends.
func CampaignFactory() campaign.ExecutorFactory {
	domOpts := []DomainOption{WithHeapPages(8), WithStackPages(4)}
	return func(target campaign.Target, workers int) (campaign.Executor, error) {
		if workers <= 0 {
			return nil, fmt.Errorf("sdrad: campaign executor needs workers > 0, got %d", workers)
		}
		switch target {
		case campaign.TargetDomain:
			sup := New()
			doms := make([]*Domain, workers)
			for i := range doms {
				d, err := sup.NewDomain(domOpts...)
				if err != nil {
					return nil, fmt.Errorf("sdrad: campaign domain %d: %w", i, err)
				}
				doms[i] = d
			}
			return &domainExecutor{sup: sup, doms: doms}, nil
		case campaign.TargetPool:
			p, err := NewPoolWithDomain(workers, domOpts)
			if err != nil {
				return nil, fmt.Errorf("sdrad: campaign pool: %w", err)
			}
			return &poolExecutor{pool: p}, nil
		case campaign.TargetBridge:
			sup := New()
			bridges := make([]*Bridge, workers)
			for i := range bridges {
				b, err := sup.NewBridge(CodecBinary, domOpts...)
				if err != nil {
					return nil, fmt.Errorf("sdrad: campaign bridge %d: %w", i, err)
				}
				bridges[i] = b
			}
			return &bridgeExecutor{sup: sup, bridges: bridges}, nil
		default:
			return nil, fmt.Errorf("sdrad: unknown campaign target %v", target)
		}
	}
}

// budgetOpts translates the engine's explicit cycle budget into run
// options (0 = none).
func budgetOpts(budget uint64, extra ...RunOption) []RunOption {
	opts := extra
	if budget > 0 {
		opts = append(opts, WithCycleBudget(budget))
	}
	return opts
}

// domainExecutor runs requests on per-worker Domains of one Supervisor:
// one simulated machine, persistent domain heaps across requests.
type domainExecutor struct {
	sup  *Supervisor
	doms []*Domain
}

func (e *domainExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	return e.doms[worker%len(e.doms)].Do(context.Background(), fn, budgetOpts(budget)...)
}

func (e *domainExecutor) Detections() map[string]uint64 { return e.sup.DetectionCounts() }

func (e *domainExecutor) Rewinds() uint64 {
	var n uint64
	for _, d := range e.doms {
		if st, err := d.Stats(); err == nil {
			n += st.Rewinds
		}
	}
	return n
}

func (e *domainExecutor) VirtualCycles() uint64 { return e.sup.VirtualCycles() }

func (e *domainExecutor) Close() error {
	var first error
	for _, d := range e.doms {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// poolExecutor runs requests on a Pool, pinning each request to its
// scheduled worker so the engine's dispatch stream fully determines
// placement.
type poolExecutor struct {
	pool *Pool
}

func (e *poolExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	return e.pool.Do(context.Background(), fn, budgetOpts(budget, WithWorker(worker))...)
}

// ExecBatch implements campaign.BatchExecutor: same-worker calls
// coalesce into one batched domain execution (pool.dispatchBatch),
// whose replay rule guarantees the positional results match serial
// Exec.
func (e *poolExecutor) ExecBatch(worker int, calls []campaign.BatchCall) []error {
	bcalls := make([]*batchCall, len(calls))
	for i, c := range calls {
		bcalls[i] = &batchCall{
			ctx: context.Background(),
			fn:  c.Fn,
			set: runSettings{budget: c.Budget, worker: worker, hasWorker: true},
		}
	}
	e.pool.dispatchBatch(worker, true, bcalls)
	errs := make([]error, len(calls))
	for i, c := range bcalls {
		errs[i] = c.err
	}
	return errs
}

// Resize implements campaign.ResizableExecutor: the engine's resize
// schedule maps directly onto the pool's elastic worker set. The
// engine's dispatch stream stays keyed by the configured worker count
// (scheduled worker indices are affinity keys, mapped onto the live set
// modulo its size), which is what makes a resize behaviorally invisible
// — the resize oracle proves it.
func (e *poolExecutor) Resize(n int) error { return e.pool.Resize(n) }

// Workers returns the pool's live worker count.
func (e *poolExecutor) Workers() int { return e.pool.Workers() }

// Interface compliance checks: the pool backend supports batching and
// elastic resizing.
var (
	_ campaign.BatchExecutor     = (*poolExecutor)(nil)
	_ campaign.ResizableExecutor = (*poolExecutor)(nil)
)

func (e *poolExecutor) Detections() map[string]uint64 { return e.pool.DetectionCounts() }

func (e *poolExecutor) Rewinds() uint64 { return e.pool.DomainStats().Rewinds }

func (e *poolExecutor) VirtualCycles() uint64 { return e.pool.VirtualCycles() }

func (e *poolExecutor) Close() error { return e.pool.Close() }

// bridgeExecutor runs requests on the backing domains of per-worker FFI
// bridges: one simulated machine, the Bridge Runner surface.
type bridgeExecutor struct {
	sup     *Supervisor
	bridges []*Bridge
}

func (e *bridgeExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	return e.bridges[worker%len(e.bridges)].Do(context.Background(), fn, budgetOpts(budget)...)
}

func (e *bridgeExecutor) Detections() map[string]uint64 { return e.sup.DetectionCounts() }

func (e *bridgeExecutor) Rewinds() uint64 {
	var n uint64
	for _, b := range e.bridges {
		if st, err := b.Domain().Stats(); err == nil {
			n += st.Rewinds
		}
	}
	return n
}

func (e *bridgeExecutor) VirtualCycles() uint64 { return e.sup.VirtualCycles() }

func (e *bridgeExecutor) Close() error {
	var first error
	for _, b := range e.bridges {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
