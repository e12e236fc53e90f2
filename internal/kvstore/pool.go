package kvstore

import (
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/retrofit"
	"repro/internal/workload"
)

// Pool shards the key-value store across N workers, each a full Server —
// private simulated machine, storage domain, cache shard, and worker
// domains. The single-Server path serializes every request behind one
// simulated core; the pool gives each shard its own core, so requests for
// keys on different shards execute concurrently (the memcached scale-out
// pattern). Keys map to shards by hash, which keeps every key's reads and
// writes on one cache shard — the consistency invariant. Both counts are
// fixed when the pool is built: the shards, and each shard's
// ServerConfig.Workers worker domains. A shard serves on one goroutine
// under its lock, so more worker domains would add no parallelism.
//
// Pool is safe for concurrent use; per-shard locking upholds each
// simulated machine's single-goroutine contract. The embedded Shards
// supply the aggregates (counters, virtual time, shard count).
type Pool struct {
	retrofit.Shards[*Server]

	// lc is the shared lifecycle state machine (internal/lifecycle): it
	// memoizes Close (a second Close must not re-run the shard closes —
	// a released store double-closing is a correctness bug — and must
	// report the same outcome as the first), memoizes Drain, and rejects
	// illegal transitions with a typed *LifecycleError.
	lc *lifecycle.Machine
}

// StorageUDIForPool is the UDI each shard's storage domain uses.
const StorageUDIForPool core.UDI = 1

// NewPool builds n shards (n <= 0 means 1). Each shard gets a fresh
// core.System from syscfg, a cache with capacity/n bytes, and a Server
// configured by cfg. The pool's total capacity matches a single server
// of the same capacity, except that each shard is floored at
// MaxValueSize (a shard that cannot hold one maximum item would reject
// valid requests), so total capacity is at least n*MaxValueSize.
func NewPool(syscfg core.Config, cfg ServerConfig, n int, capacity uint64) (*Pool, error) {
	if n <= 0 {
		n = 1
	}
	if capacity == 0 {
		capacity = 64 << 20
	}
	perShard := capacity / uint64(n)
	if perShard < MaxValueSize {
		perShard = MaxValueSize
	}
	shards := make(retrofit.Shards[*Server], n)
	for i := range shards {
		sys := core.NewSystem(syscfg)
		cache, err := NewCache(sys, StorageUDIForPool, perShard)
		if err != nil {
			closeShards(shards[:i])
			return nil, fmt.Errorf("kvstore: pool shard %d: %w", i, err)
		}
		// Persistence shards with the keys: each shard owns a private
		// store directory (its keys never migrate, so its WAL+snapshot
		// are self-contained and shards recover independently).
		shardCfg := cfg
		if cfg.Persist != nil && cfg.Persist.Dir != "" {
			pc := *cfg.Persist
			pc.Dir = filepath.Join(cfg.Persist.Dir, fmt.Sprintf("shard-%02d", i))
			shardCfg.Persist = &pc
		}
		srv, err := NewServer(sys, cache, shardCfg)
		if err != nil {
			closeShards(shards[:i])
			return nil, fmt.Errorf("kvstore: pool shard %d: %w", i, err)
		}
		shards[i] = newShard(srv)
	}
	return &Pool{Shards: shards, lc: lifecycle.NewMachine("kvstore.Pool")}, nil
}

// newShard returns the pool shard of srv.
func newShard(srv *Server) *retrofit.Shard[*Server] { return retrofit.NewShard(srv, &srv.shell) }

// closeShards best-effort-releases partially built shards after a
// failed NewPool; the construction failure is the error callers must
// see.
func closeShards(shards retrofit.Shards[*Server]) {
	for _, sh := range shards {
		if sh != nil {
			_ = sh.Srv.Close() //lint:errclass best-effort unwind; the init failure is the error callers must see
		}
	}
}

// State returns the pool's lifecycle state.
func (p *Pool) State() lifecycle.State { return p.lc.State() }

// Close flushes and releases every shard's durability backend (no-op
// for memory-only pools). The first error wins; every shard is still
// closed. Idempotent: later calls return the first call's outcome
// without touching the shards again.
func (p *Pool) Close() error { return p.lc.Close(p.teardown) }

// teardown closes every shard; first error wins.
func (p *Pool) teardown() error {
	var first error
	for i, sh := range p.Shards {
		sh.Lock()
		err := sh.Srv.Close()
		sh.Unlock()
		if err != nil && first == nil {
			first = fmt.Errorf("kvstore: pool shard %d: %w", i, err)
		}
	}
	return first
}

// Drain drains every shard gracefully (Server.Drain: flush, snapshot,
// release, stop accepting) under the shard locks, so the drained flag
// and the last WAL commit are one atomic step per shard — a request
// racing the drain either executes fully durable or is rejected with
// ErrDrained, never acked-but-lost. First error wins; every shard is
// still drained. Idempotent: later calls return the first outcome.
func (p *Pool) Drain() error {
	return p.lc.Drain(func() error {
		var first error
		for i, sh := range p.Shards {
			sh.Lock()
			err := sh.Srv.Drain()
			sh.Unlock()
			if err != nil && first == nil {
				first = fmt.Errorf("kvstore: pool shard %d drain: %w", i, err)
			}
		}
		return first
	})
}

// Interface compliance: the pool implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*Pool)(nil)

// Health reports each shard's serving state for the lifecycle
// endpoints: fail-stop dominates, then drained, then degraded
// (log-only after a snapshot failure), then ok.
func (p *Pool) Health() []gateway.ShardHealth {
	out := make([]gateway.ShardHealth, len(p.Shards))
	for i, sh := range p.Shards {
		sh.Lock()
		h := gateway.ShardHealth{Shard: i, State: gateway.ShardOK}
		switch {
		case sh.Srv.PersistErr() != nil:
			h.State = gateway.ShardFailStop
			h.Detail = sh.Srv.PersistErr().Error()
		case sh.Srv.Drained():
			h.State = gateway.ShardDrained
		case sh.Srv.SnapshotErr() != nil:
			h.State = gateway.ShardDegraded
			h.Detail = sh.Srv.SnapshotErr().Error()
		}
		sh.Unlock()
		out[i] = h
	}
	return out
}

// Capacity returns the pool's effective total cache capacity — the sum
// of the shard capacities, which exceeds the requested capacity when the
// per-shard MaxValueSize floor kicked in.
func (p *Pool) Capacity() uint64 {
	var n uint64
	for _, sh := range p.Shards {
		n += sh.Srv.cache.Capacity()
	}
	return n
}

// FNV-1a constants (hash/fnv), inlined so the per-request dispatch path
// allocates nothing.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// shardIndex maps a key to its shard index; every operation on a key
// lands on the same cache shard. The modulo runs in uint32 so the index
// stays non-negative on 32-bit platforms.
func (p *Pool) shardIndex(key string) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return int(h % uint32(len(p.Shards)))
}

// HandleContext serves one request on the shard owning req.Key; the
// context's deadline bounds the in-domain run (see Server.HandleContext).
func (p *Pool) HandleContext(ctx context.Context, clientID int, req workload.Request) Response {
	sh := p.Shards[p.shardIndex(req.Key)]
	sh.Lock()
	defer sh.Unlock()
	return sh.Srv.HandleContext(ctx, clientID, req)
}

// handleBatch serves a batch of requests that all hash to shard si as
// one pipelined unit (Server.HandleBatch) under the shard lock, and
// hands each response to put before releasing it: the server reuses its
// response slice in its next batch. The batched NetServer's per-shard
// submission queues uphold the same-shard precondition.
func (p *Pool) handleBatch(si int, batch []BatchRequest, put func(i int, resp Response)) {
	sh := p.Shards[si]
	sh.Lock()
	defer sh.Unlock()
	for i, resp := range sh.Srv.HandleBatch(batch) {
		put(i, resp)
	}
}

// Stats aggregates the shards' counters (the batch resolutions are
// per shard; see Shard).
func (p *Pool) Stats() ServerStats { return ServerStats{Counters: p.Shards.Stats()} }

// CacheStats aggregates cache counters across shards.
func (p *Pool) CacheStats() CacheStats {
	var agg CacheStats
	for _, sh := range p.Shards {
		sh.Lock()
		cs := sh.Srv.cache.Stats()
		sh.Unlock()
		agg.Hits += cs.Hits
		agg.Misses += cs.Misses
		agg.Evictions += cs.Evictions
		agg.Expired += cs.Expired
	}
	return agg
}

// CacheBytes returns the summed stored bytes across shards.
func (p *Pool) CacheBytes() uint64 {
	var n uint64
	for _, sh := range p.Shards {
		sh.Lock()
		n += sh.Srv.cache.Bytes()
		sh.Unlock()
	}
	return n
}

// CacheItems returns the summed item count across shards.
func (p *Pool) CacheItems() int {
	var n int
	for _, sh := range p.Shards {
		sh.Lock()
		n += sh.Srv.cache.Items()
		sh.Unlock()
	}
	return n
}
