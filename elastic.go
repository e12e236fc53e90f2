package sdrad

import (
	"fmt"

	"repro/internal/serve"
)

// This file implements the optional elastic-worker controller for
// AsyncPool (DESIGN.md §13). The controller is event-driven rather than
// timer-driven — the virtual-clock discipline bans wall-clock pacing —
// so it re-evaluates on the signals that carry the load information
// anyway: a batch finishing (queue depth just changed) and an overload
// rejection (admission control just fired). From those it reads the two
// pressure signals the ISSUE names: summed submission-queue depth from
// internal/submit and the per-batch p99 virtual-cycle latency from the
// internal/metrics histograms, growing the worker set under pressure
// and shrinking it back after sustained idleness. The grow/shrink rule
// itself is serve.Scaler, shared with the serving frontends; what stays
// here is the kick goroutine, because AsyncPool.Resize waits for removed
// queues to drain and so must run off the drain loops that kick it.

// ElasticConfig configures the elastic-worker controller.
type ElasticConfig struct {
	// Min and Max bound the worker count the controller may set
	// (defaults: the current worker count for both, which disables
	// scaling in that direction).
	Min, Max int
	// GrowDepthPerWorker is the queue-depth pressure threshold: when the
	// summed queue depth reaches this many calls per live worker, the
	// controller doubles the worker set (capped at Max). Default: the
	// configured MaxBatch — a full batch already waiting per worker.
	GrowDepthPerWorker int
	// GrowLatencyP99 additionally grows when the p99 per-call virtual-
	// cycle latency at any observed batch size exceeds this many cycles
	// (0 disables the latency signal).
	GrowLatencyP99 uint64
	// ShrinkIdleEvals is how many consecutive low-pressure evaluations
	// (total depth at most one call per worker) must pass before the
	// controller halves the worker set (floored at Min). Default 8.
	ShrinkIdleEvals int
}

func (c *ElasticConfig) fill(a *AsyncPool) error {
	workers := a.Workers()
	if c.Min <= 0 {
		c.Min = workers
	}
	if c.Max <= 0 {
		c.Max = workers
	}
	if c.Min > c.Max {
		return fmt.Errorf("sdrad: elastic Min %d > Max %d", c.Min, c.Max)
	}
	if c.GrowDepthPerWorker <= 0 {
		c.GrowDepthPerWorker = a.cfg.MaxBatch
	}
	if c.ShrinkIdleEvals <= 0 {
		c.ShrinkIdleEvals = 8
	}
	return nil
}

// elasticController owns the scaling loop. Signals arrive on kick (a
// capacity-1 channel: coalescing bursts is exactly right — the
// controller only needs to know "pressure may have changed", not how
// many times); the loop re-reads the live signals on every kick so a
// coalesced burst is never under-observed.
type elasticController struct {
	a      *AsyncPool
	cfg    ElasticConfig
	scaler *serve.Scaler

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// ElasticStats reports the controller's scaling activity.
type ElasticStats struct {
	// Grown and Shrunk count resize operations in each direction.
	Grown, Shrunk uint64
	// MaxWorkers is the high-water worker count the controller reached.
	MaxWorkers int
	// Workers is the current worker count.
	Workers int
}

// EnableElastic starts the elastic controller with cfg. Legal once,
// while the async layer is serving; the controller stops automatically
// on Drain/Stop/Close. Manual Resize calls still work and compose with
// the controller (both go through the same serialized Resize).
func (a *AsyncPool) EnableElastic(cfg ElasticConfig) error {
	if err := a.lc.Resizable(); err != nil {
		return err
	}
	if err := cfg.fill(a); err != nil {
		return err
	}
	a.ctrlMu.Lock()
	defer a.ctrlMu.Unlock()
	// Re-check now that ctrlMu is held: Drain/Stop publish the machine
	// state before running stopController (which also takes ctrlMu), so
	// either this check observes Draining/Stopped and refuses, or the
	// teardown's stopController has yet to take ctrlMu and will stop
	// whatever is installed here. Without the re-check a controller
	// installed in the window between the gate above and a completed
	// Drain would leak its loop onto a drained layer.
	if err := a.lc.Resizable(); err != nil {
		return err
	}
	if a.ctrl != nil {
		return fmt.Errorf("sdrad: elastic controller already enabled")
	}
	c := &elasticController{
		a:      a,
		cfg:    cfg,
		scaler: serve.NewScaler(cfg.Min, cfg.Max, cfg.GrowDepthPerWorker, cfg.ShrinkIdleEvals, a.Workers()),
		kick:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	a.ctrl = c
	go c.loop()
	return nil
}

// ElasticStats returns the controller's scaling counters (zero value
// when EnableElastic was never called).
func (a *AsyncPool) ElasticStats() ElasticStats {
	a.ctrlMu.Lock()
	c := a.ctrl
	a.ctrlMu.Unlock()
	if c == nil {
		return ElasticStats{Workers: a.Workers()}
	}
	return ElasticStats(c.scaler.Stats(a.Workers()))
}

// kickController nudges the controller to re-evaluate (no-op when the
// controller is not enabled; bursts coalesce in the 1-slot channel).
func (a *AsyncPool) kickController() {
	a.ctrlMu.Lock()
	c := a.ctrl
	a.ctrlMu.Unlock()
	if c == nil {
		return
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// stopController stops the controller and waits for its loop to exit,
// so no resize can race teardown. Idempotent.
func (a *AsyncPool) stopController() {
	a.ctrlMu.Lock()
	c := a.ctrl
	a.ctrl = nil
	a.ctrlMu.Unlock()
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

func (c *elasticController) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		}
		c.evaluate()
	}
}

// evaluate reads the pressure signals and hands them to the shared
// rule: summed queue depth, plus the p99 latency signal as extra grow
// pressure.
func (c *elasticController) evaluate() {
	a := c.a
	q := a.queues()
	if q == nil {
		return
	}
	pressure := false
	if c.cfg.GrowLatencyP99 > 0 {
		for _, s := range a.BatchLatency() {
			if s.P99 > 0 && uint64(s.P99) > c.cfg.GrowLatencyP99 {
				pressure = true
				break
			}
		}
	}
	c.scaler.Eval(q.Workers, q.TotalLoad(), pressure, a.Resize)
}
