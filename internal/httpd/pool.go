package httpd

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/retrofit"
)

// Pool runs N Servers in parallel, one per worker, each on a private
// simulated machine. The single-Server path serializes every request
// behind one simulated core; the pool gives each worker its own core
// (system, PKU keyset, virtual clock) so requests on different workers
// execute concurrently. Requests are stateless (the routing table is
// replicated), so dispatch is least-loaded with a round-robin tiebreak.
//
// Pool is safe for concurrent use; per-worker locking upholds each
// simulated machine's single-goroutine contract. The embedded Shards
// supply the aggregates (counters, virtual time).
type Pool struct {
	retrofit.Shards[*Server]
	// inflight[i] drives least-loaded dispatch to worker i; read without
	// the lock.
	inflight []atomic.Int64
	rr       atomic.Uint64
}

// NewPool builds n parallel Servers (n <= 0 means 1), each on a fresh
// core.System configured by syscfg, all sharing cfg.
func NewPool(syscfg core.Config, cfg Config, n int) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	shards := make(retrofit.Shards[*Server], n)
	for i := range shards {
		srv, err := NewServer(core.NewSystem(syscfg), cfg)
		if err != nil {
			return nil, fmt.Errorf("httpd: pool worker %d: %w", i, err)
		}
		shards[i] = retrofit.NewShard(srv, &srv.shell)
	}
	return &Pool{Shards: shards, inflight: make([]atomic.Int64, len(shards))}, nil
}

// HandleFunc registers static content for GET path on every worker (the
// routing table is trusted, replicated state).
func (p *Pool) HandleFunc(path string, content []byte) {
	for _, sh := range p.Shards {
		sh.Lock()
		sh.Srv.HandleFunc(path, content)
		sh.Unlock()
	}
}

// Serve handles one raw HTTP request on the least-loaded worker. It is
// ServeContext with a background context.
func (p *Pool) Serve(clientID int, raw []byte) Response {
	return p.ServeContext(context.Background(), clientID, raw)
}

// ServeContext handles one raw HTTP request on the least-loaded worker;
// the context's deadline bounds the request's parse run (see
// Server.ServeContext).
func (p *Pool) ServeContext(ctx context.Context, clientID int, raw []byte) Response {
	// Acquire reserves the inflight slot atomically with the pick, so a
	// burst of concurrent requests spreads across workers instead of all
	// observing the same idle shard (see sdrad.Pool.pick).
	best := dispatch.Acquire(len(p.Shards), int(p.rr.Add(1)-1), func(i int) *atomic.Int64 {
		return &p.inflight[i]
	})
	defer p.inflight[best].Add(-1)
	sh := p.Shards[best]
	sh.Lock()
	defer sh.Unlock()
	return sh.Srv.ServeContext(ctx, clientID, raw)
}

// serveBatch serves a batch of requests on worker si as one pipelined
// unit (Server.ServeBatch) under the worker lock, and hands each
// response to put before releasing it: the server reuses its response
// slice in its next batch. The batched NetServer's per-worker
// submission queues pick si.
func (p *Pool) serveBatch(si int, batch []BatchRequest, put func(i int, resp Response)) {
	p.inflight[si].Add(int64(len(batch)))
	defer p.inflight[si].Add(-int64(len(batch)))
	sh := p.Shards[si]
	sh.Lock()
	defer sh.Unlock()
	for i, resp := range sh.Srv.ServeBatch(batch) {
		put(i, resp)
	}
}
