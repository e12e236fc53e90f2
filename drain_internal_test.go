package sdrad

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDrainWaitsForMidRetryCall pins the whole-call drain contract: a
// call admitted before Drain that is parked between retry attempts —
// holding no worker inflight slot — must still be covered by Drain.
// Before the pool counted whole calls, Drain watched only the
// per-worker inflight slots, observed an idle pool while the call sat
// between attempts, and returned; the call then executed its retry
// after the drain had completed.
func TestDrainWaitsForMidRetryCall(t *testing.T) {
	p, err := NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })

	retryReady := make(chan struct{})
	resume := make(chan struct{})
	var hookOnce sync.Once
	testHookDispatchAttempt = func(attempt int) {
		if attempt == 2 {
			hookOnce.Do(func() { close(retryReady) })
			<-resume
		}
	}
	t.Cleanup(func() { testHookDispatchAttempt = nil })

	var drainReturned atomic.Bool
	var ranAfterDrain atomic.Bool
	var entries atomic.Int32
	doDone := make(chan error, 1)
	go func() {
		doDone <- p.Do(context.Background(), func(c *Ctx) error {
			if drainReturned.Load() {
				ranAfterDrain.Store(true)
			}
			if entries.Add(1) == 1 {
				c.MustStore64(0xdead0000, 1) // violate: rewound, then retried
			}
			return nil
		}, WithRetries(1))
	}()
	<-retryReady // the call now sits between attempts: no inflight slot held

	drainDone := make(chan error, 1)
	go func() {
		derr := p.Drain()
		drainReturned.Store(true)
		drainDone <- derr
	}()
	for !p.draining.Load() {
		runtime.Gosched()
	}
	// Admission is closed and every worker is idle. A Drain watching
	// only worker inflight slots would return now; give it every chance
	// to expose itself before the parked call resumes.
	early := false
	for i := 0; i < 500 && !early; i++ {
		select {
		case derr := <-drainDone:
			if derr != nil {
				t.Errorf("Drain: %v", derr)
			}
			early = true
		default:
			runtime.Gosched()
		}
	}
	close(resume)
	if derr := <-doDone; derr != nil {
		t.Errorf("admitted call: %v", derr)
	}
	if !early {
		if derr := <-drainDone; derr != nil {
			t.Errorf("Drain: %v", derr)
		}
	}
	if early {
		t.Error("Drain returned while an admitted call was parked between retry attempts")
	}
	if ranAfterDrain.Load() {
		t.Error("admitted call executed after Drain returned")
	}
}
