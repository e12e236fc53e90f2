package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
	"repro/internal/workload"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// ID is the node's stable identity.
	ID NodeID
	// Sys configures the simulated machines of the node's pool shards.
	Sys core.Config
	// Server configures each shard's kvstore server.
	Server kvstore.ServerConfig
	// Shards is the node-local shard count (default 1: the cluster is
	// the scale-out dimension; node-local sharding stays available).
	Shards int
	// Capacity is the node's total cache capacity in bytes (default
	// 64 MiB).
	Capacity uint64
	// Registry, when set, is where Start registers the node's session
	// and Drain deregisters it.
	Registry *Registry
}

// Node is one cluster member: a full kvstore.Pool (its own simulated
// machines, storage domains, and parser worker domains) plus a
// registry session. It implements lifecycle.Component with the
// deferred-construction pattern: NewNode is cheap, Init builds the
// pool, Start begins serving and registers the session.
//
// Node is safe for concurrent use to the extent the pool is (per-shard
// locking); the router's membership lock serializes lifecycle events
// against dispatch.
type Node struct {
	lc  *lifecycle.Machine
	cfg NodeConfig

	pool *kvstore.Pool
}

// NewNode constructs a node without allocating its pool. Call Init and
// Start (or let the router do it).
func NewNode(cfg NodeConfig) *Node {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 64 << 20
	}
	return &Node{
		lc:  lifecycle.NewMachine(fmt.Sprintf("cluster.Node[%d]", cfg.ID)),
		cfg: cfg,
	}
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

// Init builds the node's pool. Legal exactly once, from
// StateInitializing.
func (n *Node) Init() error {
	return n.lc.Init(func() error {
		p := kvstore.NewDeferredPool(n.cfg.Sys, n.cfg.Server, n.cfg.Shards, n.cfg.Capacity)
		if err := p.Init(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", n.cfg.ID, err)
		}
		if err := p.Start(); err != nil {
			return fmt.Errorf("cluster: node %d: %w", n.cfg.ID, err)
		}
		n.pool = p
		return nil
	})
}

// Start makes the node serve and opens its registry session. Legal
// exactly once, after Init.
func (n *Node) Start() error {
	return n.lc.Start(func() error {
		if n.cfg.Registry != nil {
			if err := n.cfg.Registry.Register(n.cfg.ID); err != nil {
				return err
			}
		}
		return nil
	})
}

// Heartbeat renews the node's registry lease. The router calls it for
// every reachable node as the membership clock advances; a crashed or
// partitioned node simply stops heartbeating, which is what makes its
// lease expire.
func (n *Node) Heartbeat() error {
	if n.cfg.Registry == nil {
		return nil
	}
	return n.cfg.Registry.Renew(n.cfg.ID)
}

// Drain stops admission gracefully (pool drain: queued work preserved,
// final WAL commit on durable nodes) and closes the registry session.
// Idempotent.
func (n *Node) Drain() error {
	return n.lc.Drain(func() error {
		if n.cfg.Registry != nil {
			if err := n.cfg.Registry.Deregister(n.cfg.ID); err != nil {
				if _, ok := IsMembership(err); !ok {
					return err
				}
				// A dead session was already swept: deregistering it again
				// is the crash-then-drain race, not an error.
			}
		}
		return n.pool.Drain()
	})
}

// Stop tears the node down. A second Stop returns a typed
// *LifecycleError (use Close for the idempotent form).
func (n *Node) Stop(ctx context.Context) error {
	_ = ctx
	return n.lc.Stop(n.teardown)
}

// Close is the idempotent form of Stop.
func (n *Node) Close() error { return n.lc.Close(n.teardown) }

// teardown releases the pool.
func (n *Node) teardown() error {
	if n.pool == nil {
		return nil
	}
	return n.pool.Close()
}

// State returns the node's lifecycle state.
func (n *Node) State() lifecycle.State { return n.lc.State() }

// Interface compliance: the node implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*Node)(nil)

// HandleContext serves one request on the node's pool.
func (n *Node) HandleContext(ctx context.Context, clientID int, req workload.Request) kvstore.Response {
	return n.pool.HandleContext(ctx, clientID, req)
}

// HandleBatch serves a mixed-key batch on the node's pool as pipelined
// per-shard units, preserving arrival order per key.
func (n *Node) HandleBatch(batch []kvstore.BatchRequest) []kvstore.Response {
	return n.pool.HandleBatchMixed(batch)
}

// Apply performs a trusted-side replica apply: the mutation was parsed,
// admitted, and acknowledged by the slot's primary, so the replica
// applies it directly to its cache (and, on durable nodes, commits it
// to its WAL) without re-parsing — log shipping, not request
// re-execution. Detections therefore count once, on the primary.
func (n *Node) Apply(req workload.Request) error {
	return n.pool.Apply(req)
}

// Dump returns the node's full key→value state (union over its
// shards), for handoff syncs and survivor digests.
func (n *Node) Dump() (map[string][]byte, error) {
	return n.pool.DumpAll()
}

// Scan pages through the node's keys in sorted order (see Pool.Scan).
func (n *Node) Scan(prefix, cursor string, limit int) (kvstore.ScanResult, error) {
	return n.pool.Scan(prefix, cursor, limit)
}

// Stats aggregates the pool's server accounting.
func (n *Node) Stats() kvstore.ServerStats { return n.pool.Stats() }

// VirtualTime returns the node's parallel makespan (max across its
// shards' simulated machines).
func (n *Node) VirtualTime() int64 { return int64(n.pool.VirtualTime()) }
