package campaign

import (
	"context"
	"fmt"

	sdrad "repro"
	"repro/internal/core"
)

// This file provides the production executors: per-worker Domains on
// one Supervisor (for the bridge target, the backing domains of
// per-worker FFI Bridges) and a Pool with worker-pinned dispatch.
// Backends provisions them; cmd/sdrad-campaign and the experiment
// harness hand it to Run, RunGateway and CheckAll.
// Tests substitute instrumented factories.

// Backends provisions campaign executors over the public Runner
// implementations. Campaign domains use a fixed 8-page heap / 4-page
// stack (the servers' worker shape), so traces are comparable across
// backends.
func Backends() ExecutorFactory {
	domOpts := []sdrad.DomainOption{sdrad.WithHeapPages(8), sdrad.WithStackPages(4)}
	return func(target Target, workers int) (Executor, error) {
		if workers <= 0 {
			return nil, fmt.Errorf("campaign: executor needs workers > 0, got %d", workers)
		}
		switch target {
		case TargetDomain:
			sup := sdrad.New()
			doms := make([]*sdrad.Domain, workers)
			for i := range doms {
				d, err := sup.NewDomain(domOpts...)
				if err != nil {
					return nil, fmt.Errorf("campaign: domain %d: %w", i, err)
				}
				doms[i] = d
			}
			return &domainExecutor{sup: sup, doms: doms}, nil
		case TargetPool:
			p, err := sdrad.NewPoolWithDomain(workers, domOpts)
			if err != nil {
				return nil, fmt.Errorf("campaign: pool: %w", err)
			}
			return &poolExecutor{pool: p}, nil
		case TargetBridge:
			sup := sdrad.New()
			doms := make([]*sdrad.Domain, workers)
			for i := range doms {
				b, err := sup.NewBridge(sdrad.CodecBinary, domOpts...)
				if err != nil {
					return nil, fmt.Errorf("campaign: bridge %d: %w", i, err)
				}
				doms[i] = b.Domain() // Bridge.Do and Bridge.Close are its domain's
			}
			return &domainExecutor{sup: sup, doms: doms}, nil
		default:
			return nil, fmt.Errorf("campaign: unknown target %v", target)
		}
	}
}

// budgetOpts translates the engine's explicit cycle budget into run
// options (0 = none).
func budgetOpts(budget uint64, extra ...sdrad.RunOption) []sdrad.RunOption {
	opts := extra
	if budget > 0 {
		opts = append(opts, sdrad.WithCycleBudget(budget))
	}
	return opts
}

// domainExecutor runs requests on per-worker Domains of one Supervisor:
// one simulated machine, persistent domain heaps across requests.
type domainExecutor struct {
	sup  *sdrad.Supervisor
	doms []*sdrad.Domain
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
	pool *sdrad.Pool
}

func (e *poolExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	return e.pool.Do(context.Background(), fn, budgetOpts(budget, sdrad.WithWorker(worker))...)
}

// ExecBatch implements BatchExecutor: same-worker calls coalesce into
// one batched domain execution (Pool.DoBatchItems), whose replay rule
// guarantees the positional results match serial Exec.
func (e *poolExecutor) ExecBatch(worker int, calls []BatchCall) []error {
	items := make([]sdrad.BatchItem, len(calls))
	for i, c := range calls {
		items[i] = sdrad.BatchItem{Fn: c.Fn, Opts: budgetOpts(c.Budget, sdrad.WithWorker(worker))}
	}
	return e.pool.DoBatchItems(items)
}

// Interface compliance check: the pool backend supports batching.
var _ BatchExecutor = (*poolExecutor)(nil)

func (e *poolExecutor) Detections() map[string]uint64 { return e.pool.DetectionCounts() }

func (e *poolExecutor) Rewinds() uint64 { return e.pool.DomainStats().Rewinds }

func (e *poolExecutor) VirtualCycles() uint64 { return e.pool.VirtualCycles() }

func (e *poolExecutor) Close() error { return e.pool.Close() }
