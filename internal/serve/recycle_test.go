package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestQueuedDoAllocations: once its calls are pooled, a batched
// frontend serves a request without allocating — the call carries its
// own task, the task's future needs no channel, and Wait recycles the
// call — whether Do finds its shard idle and runs the call on the
// calling goroutine, or finds the shard busy and queues it.
func TestQueuedDoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// One P: a request submitted just before a Do is still queued when
	// the Do reaches its shard.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEcho(2)
	if err := e.f.Queue(16, 4); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.f.Close(); err != nil {
			t.Error(err)
		}
	}()
	inline := func() uint64 { return e.f.Queues().Stats(0).Inline + e.f.Queues().Stats(1).Inline }
	// Upper-case requests: the echo's ToUpper then returns its input.
	do := func(t *testing.T, req string) {
		if got := e.f.Do(1, req); got != req {
			t.Fatalf("Do(%q) = %q", req, got)
		}
	}
	for _, c := range []struct {
		name   string
		serve  func(t *testing.T)
		inline uint64 // calls run on the caller per serve
	}{
		{"idle shard", func(t *testing.T) { do(t, "PING"); do(t, "PONG!") }, 2},
		{"busy shard", func(t *testing.T) {
			// PING and PONG share shard 0: the Do queues behind the call
			// submitted ahead of it.
			p := e.f.Submit(1, "PING")
			do(t, "PONG")
			if got := e.f.Wait(&p); got != "PING" {
				t.Fatalf("Wait = %q", got)
			}
		}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := inline()
			c.serve(t)
			if got := inline() - before; got != c.inline {
				t.Fatalf("%d calls ran on the caller, want %d", got, c.inline)
			}
			if allocs := testing.AllocsPerRun(100, func() { c.serve(t) }); allocs != 0 {
				t.Errorf("%v allocations per serve, want 0", allocs)
			}
		})
	}
}

// TestRecycledCallsKeepTheirOutcome hammers call recycling: goroutines
// keep up to eight distinct requests in flight, waiting for the oldest
// and submitting the next at once, on a two-shard frontend whose shards
// batch up to four calls, while the backend fails requests at random. A
// call (and its task) is reused as soon as Wait returns, so a task the
// drain loop touched after publishing it, or a call recycled too early,
// would hand one request another's outcome. Every reply must be its own
// request's — or, for a request the queues refused, the overload shed.
func TestRecycledCallsKeepTheirOutcome(t *testing.T) {
	const goroutines, requests = 8, 1500
	e := newEcho(2)
	batch := e.f.b.Batch
	e.f.b.Batch = func(shard int, calls []*Call[string, string]) {
		batch(shard, calls)
		for _, c := range calls {
			if strings.HasPrefix(c.Req, "fail") {
				c.Resp = "ERR " + c.Req
			}
		}
	}
	if err := e.f.Queue(32, 4); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.f.Close(); err != nil {
			t.Error(err)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			type sent struct {
				req string
				p   Pending[string, string]
			}
			var window []sent
			check := func(s *sent) error {
				over := s.p.Overloaded()
				got := e.f.Wait(&s.p)
				want := strings.ToUpper(s.req)
				if strings.HasPrefix(s.req, "fail") {
					want = "ERR " + s.req
				}
				if got != want && !(over && strings.Contains(got, "retry")) {
					return fmt.Errorf("request %q answered %q, want %q", s.req, got, want)
				}
				return nil
			}
			for i := 0; i < requests; i++ {
				req := fmt.Sprintf("ok-%d-%d", g, i)
				if rng.Intn(4) == 0 {
					req = fmt.Sprintf("fail-%d-%d", g, i)
				}
				window = append(window, sent{req: req, p: e.f.Submit(g, req)})
				if len(window) < 1+rng.Intn(8) {
					continue
				}
				if err := check(&window[0]); err != nil {
					errs <- err
					return
				}
				window = append(window[:0], window[1:]...)
			}
			for k := range window {
				if err := check(&window[k]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
