package cluster

import (
	"context"
	"errors"
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
	// Registry, when set, is where NewNode registers the node's session
	// and Drain deregisters it.
	Registry *Registry
}

// Node is one cluster member: a full kvstore.Pool (its own simulated
// machines, storage domains, and parser worker domains) plus a
// registry session. It implements lifecycle.Component: NewNode builds
// the pool and opens the session, so a node is serving from
// construction.
//
// Node is safe for concurrent use to the extent the pool is (per-shard
// locking); the router's membership lock serializes lifecycle events
// against dispatch.
type Node struct {
	lc  *lifecycle.Machine
	cfg NodeConfig

	pool *kvstore.Pool
}

// NewNode builds the node's pool and registers its session in
// cfg.Registry (if any). A node whose registration is refused has its
// pool released before the error returns.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = 64 << 20
	}
	p, err := kvstore.NewPool(cfg.Sys, cfg.Server, cfg.Shards, cfg.Capacity)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", cfg.ID, err)
	}
	if cfg.Registry != nil {
		if err := cfg.Registry.Register(cfg.ID); err != nil {
			return nil, errors.Join(err, p.Close())
		}
	}
	return &Node{
		lc:   lifecycle.NewMachine(fmt.Sprintf("cluster.Node[%d]", cfg.ID)),
		cfg:  cfg,
		pool: p,
	}, nil
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.cfg.ID }

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

// Close tears the node down, releasing its pool. Idempotent.
func (n *Node) Close() error { return n.lc.Close(n.pool.Close) }

// State returns the node's lifecycle state.
func (n *Node) State() lifecycle.State { return n.lc.State() }

// Interface compliance: the node implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*Node)(nil)

// HandleContext serves one request on the node's pool.
func (n *Node) HandleContext(ctx context.Context, clientID int, req workload.Request) kvstore.Response {
	return n.pool.HandleContext(ctx, clientID, req)
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
