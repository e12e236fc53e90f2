// Package serve is the one socket frontend of the repository: the
// accept loop, the lifecycle (Init/Start/Drain/Stop/Close and the drain
// order), the optional gateway and request deadline, the submission-
// queue wiring with its overload and closed-queue responses, worker
// resizing and the elastic grow/shrink rule. Everything a protocol or a
// store must decide is handed in through Backend, so internal/kvstore,
// internal/httpd and cmd/sdrad-cluster keep only parsing, rendering and
// their shard pick. DESIGN.md §13 ("Serving frontend") has the seam and
// the drain-order argument.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/submit"
)

// OverloadRetryCyclesPerSlot is the virtual-cycle cost estimate behind
// every overload retry hint: one queue slot ≈ one request's service
// time (the servers' 100µs inter-arrival at the default clock). A hint
// is configured depth × this, quantized — pure configuration, so the
// rejection bytes are identical across runs and hosts (the bare
// OverloadError's occupancy detail depends on host timing and must
// never reach the wire).
const OverloadRetryCyclesPerSlot = 300_000

// shrinkIdleEvals is the number of consecutive low-backlog batch
// evaluations before a frontend's elastic controller shrinks.
const shrinkIdleEvals = 16

// Call is one request in flight: the record a batched frontend queues.
// The drain loop fills Resp before the call's future resolves.
type Call[Req, Resp any] struct {
	Ctx      context.Context
	ClientID int
	Req      Req
	Resp     Resp
}

// Backend is the protocol/backend seam: what a Frontend cannot know
// about the bytes on the wire or the store behind it.
type Backend[Req, Resp any] struct {
	// Name prefixes errors and names the lifecycle machine.
	Name string
	// ServeConn runs the protocol on one accepted connection.
	ServeConn func(id int, conn io.ReadWriter)
	// Handle serves one request by a direct call (serial frontends).
	Handle func(ctx context.Context, clientID int, req Req) Resp
	// Batch serves calls on one shard as a pipelined unit, filling each
	// call's Resp (batched frontends).
	Batch func(shard int, calls []*Call[Req, Resp])
	// Pick chooses req's queue; load reports a queue's occupancy.
	Pick func(req Req, load func(shard int) int64) int
	// Failover says requests are stateless: a full first pick fails over
	// to any other queue, and only a frontend-wide full sheds.
	Failover bool
	// Shed renders a request that was not executed (typed overload hint
	// or closed queues).
	Shed func(err error) Resp
	// Shards is the number of backend shards, one queue each.
	Shards int
	// Workers and Resize read and set the per-shard worker-domain count
	// (Resize nil: the backend cannot resize); MaxWorkers caps it.
	Workers    func() int
	Resize     func(k int) error
	MaxWorkers int
	// Health reports shard states for the health document (may be nil).
	Health func() []gateway.ShardHealth
	// Drain and Close release the backend (either may be nil).
	Drain, Close func() error
}

// Frontend serves a Backend over sockets. New returns it Initializing;
// Init and Start (or Serving, for both) make it serve.
type Frontend[Req, Resp any] struct {
	b   Backend[Req, Resp]
	log *log.Logger
	lc  *lifecycle.Machine

	gw         *gateway.Gateway
	reqTimeout time.Duration

	// qcfg is set by Queue; Init builds queues from it.
	qcfg   *submit.Config
	queues *submit.Queues
	// load is queues.Load, bound once so Do allocates no method value.
	load func(int) int64
	// scratch[i] is shard i's reusable batch slice (batches for one
	// shard never overlap).
	scratch [][]*Call[Req, Resp]

	scaler atomic.Pointer[Scaler]
	nextID atomic.Int64
	// paced counts LogPaced calls per event; it only paces the log.
	paced [numEvents]atomic.Uint64
	wg    sync.WaitGroup
}

// New returns an Initializing frontend that calls b.Handle directly,
// once per request (Queue switches it to batched serving). logger may
// be nil to disable logging.
func New[Req, Resp any](b Backend[Req, Resp], logger *log.Logger) *Frontend[Req, Resp] {
	return &Frontend[Req, Resp]{b: b, log: logger, lc: lifecycle.NewMachine(b.Name + ".NetServer")}
}

// Queue makes the frontend serve through the asynchronous submission
// layer: connections enqueue into bounded per-shard queues
// (internal/submit) and one drain loop per shard coalesces up to
// maxBatch queued requests into a single b.Batch. maxInflight bounds
// admitted-but-unanswered requests across the frontend (<= 0 means
// 1024); at capacity new requests are shed immediately with a
// deterministic cycles-quantized retry hint. Call before Init, which
// starts the drain loops; Close stops them.
func (f *Frontend[Req, Resp]) Queue(maxInflight, maxBatch int) {
	if maxInflight <= 0 {
		maxInflight = 1024
	}
	f.scratch = make([][]*Call[Req, Resp], f.b.Shards)
	f.qcfg = &submit.Config{Workers: f.b.Shards, Depth: max(maxInflight/f.b.Shards, 1), MaxBatch: maxBatch, Exec: f.exec}
}

// exec is the drain loops' executor: one batch on one shard, then one
// elastic evaluation (event-driven — no wall-clock timers on the
// simulated-machine side).
func (f *Frontend[Req, Resp]) exec(shard int, tasks []*submit.Task) {
	calls := f.scratch[shard][:0]
	for _, t := range tasks {
		calls = append(calls, t.Payload.(*Call[Req, Resp]))
	}
	f.b.Batch(shard, calls)
	for _, t := range tasks {
		t.Resolve(nil)
	}
	clear(calls)
	f.scratch[shard] = calls
	if s := f.scaler.Load(); s != nil {
		s.Eval(f.b.Workers, f.queues.TotalLoad()/int64(f.b.Shards), false, f.b.Resize)
	}
}

// Do serves one request under the configured deadline: a direct call on
// a serial frontend, one queued Call on a batched one. A request the
// queues refuse is shed with a typed error — an overload carries a
// deterministic retry hint derived from the configured depth. The
// request's context still governs its in-domain budget once queued
// (deadlines that expire while queued surface as preemptions).
func (f *Frontend[Req, Resp]) Do(clientID int, req Req) Resp {
	ctx := context.Background()
	if f.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.reqTimeout)
		defer cancel()
	}
	if f.queues == nil {
		return f.b.Handle(ctx, clientID, req)
	}
	c := &Call[Req, Resp]{Ctx: ctx, ClientID: clientID, Req: req}
	w := f.b.Pick(req, f.load)
	fut, err := f.queues.Submit(w, ctx, c)
	if err == nil {
		return f.await(c, fut)
	}
	_, over := submit.IsOverload(err)
	for i := 1; over && f.b.Failover && i < f.b.Shards; i++ {
		if fut, err = f.queues.Submit((w+i)%f.b.Shards, ctx, c); err == nil {
			return f.await(c, fut)
		}
		_, over = submit.IsOverload(err)
	}
	if over {
		err = &gateway.RetryHintError{
			Cycles: gateway.QuantizeRetryCycles(uint64(f.queues.Depth()) * OverloadRetryCyclesPerSlot),
			Cause:  err,
		}
	}
	return f.b.Shed(err)
}

// await maps an admitted call's future onto its response. A non-nil
// resolution means the drain loop never filled Resp (the queues closed
// underneath the admitted call), so the typed error must reach the wire
// instead of a zero-value response.
func (f *Frontend[Req, Resp]) await(c *Call[Req, Resp], fut *submit.Future) Resp {
	if err := fut.Err(); err != nil {
		return f.b.Shed(err)
	}
	return c.Resp
}

// SetGateway installs the tenant admission front tier; the protocol
// consults it through Gateway. Call before Serve.
func (f *Frontend[Req, Resp]) SetGateway(gw *gateway.Gateway) { f.gw = gw }

// Gateway returns the installed gateway, nil when there is none.
func (f *Frontend[Req, Resp]) Gateway() *gateway.Gateway { return f.gw }

// SetRequestTimeout installs a per-request deadline (0 disables it, the
// default), mapped to a virtual-cycle budget by the backend. Call
// before Serve.
func (f *Frontend[Req, Resp]) SetRequestTimeout(d time.Duration) { f.reqTimeout = d }

// Queues returns the submission layer, nil on a serial frontend.
func (f *Frontend[Req, Resp]) Queues() *submit.Queues { return f.queues }

// Logf logs through the frontend's logger, if it has one.
func (f *Frontend[Req, Resp]) Logf(format string, args ...any) {
	if f.log != nil {
		f.log.Printf(format, args...)
	}
}

// Event is a kind of log line a client can trigger at will. Each kind
// keeps its own running total for LogPaced.
type Event uint8

// The paced events.
const (
	// EventContained is a contained memory-safety violation.
	EventContained Event = iota
	// EventReadFailed is a connection whose request could not be read
	// (a connect-and-close, a port scan, an oversized head).
	EventReadFailed
	// EventAuthRejected is a rejected credential.
	EventAuthRejected
	numEvents
)

// eventText is what a paced line says happened.
var eventText = [numEvents]string{
	EventContained:    "contained memory-safety violation (domain rewound)",
	EventReadFailed:   "read",
	EventAuthRejected: "auth rejected",
}

// LogPaced logs one event on connection conn (of tenant, when a gateway
// named one; with cause, when there is one) — but only when the
// frontend's running total of that event is a power of two. A client
// sets the rate of these events, so one line each would let it drive
// one stderr write per request without bound; this way n of them cost
// log2(n)+1 lines, the first is still reported at once, and each line
// carries the total. The exact counts live in the backend's stats and
// the gateway's tenant counters, which this does not touch. Nothing is
// formatted (or allocated) for a line that is not written.
func (f *Frontend[Req, Resp]) LogPaced(ev Event, conn int, tenant string, cause error) {
	n := f.paced[ev].Add(1)
	if n&(n-1) != 0 {
		return
	}
	if tenant != "" {
		tenant = ": tenant " + tenant
	}
	why := ""
	if cause != nil {
		why = ": " + cause.Error()
	}
	f.Logf("conn %d%s: %s%s, %d on this server so far", conn, tenant, eventText[ev], why, n)
}

// Init allocates the frontend's own resources: a batched frontend's
// queues and drain loops (the backend was built by its owner).
func (f *Frontend[Req, Resp]) Init() error {
	return f.lc.Init(func() error {
		if f.qcfg == nil {
			return nil
		}
		q, err := submit.New(*f.qcfg)
		if err != nil {
			return err
		}
		f.queues, f.load = q, q.Load
		return nil
	})
}

// Start moves the frontend to StateHealthy.
func (f *Frontend[Req, Resp]) Start() error { return f.lc.Start(nil) }

// Serving runs Init then Start: the eager-constructor form.
func (f *Frontend[Req, Resp]) Serving() error {
	if err := f.Init(); err != nil {
		return err
	}
	return f.Start()
}

// State returns the frontend's lifecycle state.
func (f *Frontend[Req, Resp]) State() lifecycle.State { return f.lc.State() }

// Draining reports whether Drain has been called (and Stop has not yet
// superseded it).
func (f *Frontend[Req, Resp]) Draining() bool { return f.lc.State() == lifecycle.StateDraining }

// Drain shuts the frontend down gracefully, in the order that makes
// "every ack durable, nothing after" true: (1) stop admission — the
// gateway rejects new arrivals with *DrainingError; (2) flush the
// submission queues — every admitted request executes (and, on a
// durable backend, its batch group-commits to the WAL) before its ack
// is written; (3) close the queues — stragglers get typed ErrClosed;
// (4) drain the backend — final commit, snapshot, store release, and
// its own gate for any request that still reaches a shard. Idempotent:
// later calls return the first outcome.
func (f *Frontend[Req, Resp]) Drain() error {
	return f.lc.Drain(func() error {
		if f.gw != nil {
			f.gw.StartDrain()
		}
		return f.release(f.b.Drain)
	})
}

// Close stops the submission layer (queued requests are answered, drain
// loops exit) and closes the backend, propagating its error.
// Idempotent: later calls return the first outcome. Serve must have
// returned (or never been called).
func (f *Frontend[Req, Resp]) Close() error { return f.lc.Close(f.teardown) }

// Stop is the strict lifecycle form of Close: same teardown, but a
// second Stop returns a typed *LifecycleError instead of the memoized
// outcome. ctx is accepted for interface symmetry; teardown is bounded
// by the queue flush and the backend, not the context.
func (f *Frontend[Req, Resp]) Stop(ctx context.Context) error {
	_ = ctx
	return f.lc.Stop(f.teardown)
}

// teardown is what Close and Stop run: queues, then the backend's close.
func (f *Frontend[Req, Resp]) teardown() error { return f.release(f.b.Close) }

// release flushes and closes the queues, then runs the backend step.
func (f *Frontend[Req, Resp]) release(backend func() error) error {
	if f.queues != nil {
		f.queues.Flush()
		f.queues.Close()
	}
	if backend != nil {
		return backend()
	}
	return nil
}

var _ lifecycle.Component = (*Frontend[int, int])(nil)

// ResizeWorkers grows or shrinks every shard's worker-domain set to k.
// Legal while Healthy or Degraded.
func (f *Frontend[Req, Resp]) ResizeWorkers(k int) error {
	if err := f.lc.Resizable(); err != nil {
		return err
	}
	if f.b.Resize == nil {
		return fmt.Errorf("%s: resize workers: server has no resizable backend", f.b.Name)
	}
	return f.b.Resize(k)
}

// EnableElastic turns on worker-domain autoscaling between min and max
// per shard: the set doubles when the queued backlog reaches two
// requests per live worker per shard and halves after a sustained idle
// stretch (see Scaler). Requires a batched frontend over a resizable
// backend; call before Serve. The frontend starts at min workers.
func (f *Frontend[Req, Resp]) EnableElastic(min, max int) error {
	if err := f.lc.Resizable(); err != nil {
		return err
	}
	if f.queues == nil || f.b.Resize == nil {
		return fmt.Errorf("%s: elastic mode needs a batched pool server", f.b.Name)
	}
	if min < 1 || max < min || max > f.b.MaxWorkers {
		return fmt.Errorf("%s: elastic bounds [%d, %d] out of range [1, %d]", f.b.Name, min, max, f.b.MaxWorkers)
	}
	if err := f.b.Resize(min); err != nil {
		return err
	}
	f.scaler.Store(NewScaler(min, max, 2, shrinkIdleEvals, min))
	return nil
}

// ElasticStats returns the autoscaler's counters (zero value when
// elastic mode is off).
func (f *Frontend[Req, Resp]) ElasticStats() ElasticStats {
	s := f.scaler.Load()
	if s == nil {
		return ElasticStats{}
	}
	return s.Stats(f.b.Workers())
}

// Health assembles the health document: lifecycle and gateway drain
// state, the backend's shard rows, and (with a gateway) per-tenant
// counters, all in deterministic order.
func (f *Frontend[Req, Resp]) Health() *gateway.Health {
	var shards []gateway.ShardHealth
	if f.b.Health != nil {
		shards = f.b.Health()
	}
	draining := f.Draining()
	var tenants []metrics.TenantSnapshot
	if f.gw != nil {
		draining = draining || f.gw.Draining()
		tenants = f.gw.Stats().Snapshot()
	}
	return gateway.BuildHealth(draining, f.b.Shards, shards, tenants)
}

// Serve accepts connections on ln until it is closed, then waits for
// in-flight connections to finish.
func (f *Frontend[Req, Resp]) Serve(ln net.Listener) error {
	defer f.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("%s: accept: %w", f.b.Name, err)
		}
		id := int(f.nextID.Add(1))
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer func() {
				if cerr := conn.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					f.Logf("conn %d close: %v", id, cerr)
				}
			}()
			f.b.ServeConn(id, conn)
		}()
	}
}

// ServeUntilSignal is Serve with the graceful shutdown every binary
// wants: on SIGINT/SIGTERM it drains (stop admission, flush queues so
// every ack is durable, release the backend) and then closes ln so
// Serve returns.
func (f *Frontend[Req, Resp]) ServeUntilSignal(ln net.Listener) error {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	served := make(chan struct{})
	defer close(served)
	go func() {
		select {
		case <-served:
			return
		case <-sigCh:
		}
		f.Logf("draining")
		if err := f.Drain(); err != nil {
			f.Logf("drain: %v", err)
		}
		if err := ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			f.Logf("close listener: %v", err)
		}
	}()
	return f.Serve(ln)
}
