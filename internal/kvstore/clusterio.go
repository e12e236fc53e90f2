package kvstore

import (
	"fmt"
	"sort"

	"repro/internal/workload"
)

// This file is the pool surface the cluster tier (internal/cluster)
// builds on: trusted-side replica application (log shipping — a
// mutation the primary already parsed, admitted, and acknowledged is
// applied without re-execution), whole-pool state dumps for handoff
// syncs and survivor digests.

// Apply performs a trusted-side apply of an acknowledged mutation: the
// cache operation plus, on durable servers, its WAL group commit — but
// no domain parse and no fault injection, because the mutation already
// went through both on the slot's primary. The drain and fail-stop
// gates still hold: a drained or fail-stopped replica refuses the
// apply, surfacing the inconsistency instead of diverging silently.
// GETs are rejected — only mutations ship between replicas.
func (s *Server) Apply(req workload.Request) error {
	if s.drained {
		return ErrDrained
	}
	if s.persistErr != nil {
		return s.failStopResponse().Err
	}
	switch req.Op {
	case workload.OpSet:
		if err := s.cache.SetItem(req.Key, req.Value, req.TTL, req.Flags); err != nil {
			return err
		}
		s.stageSet(req.Key, req.Flags, req.Value)
	case workload.OpDelete:
		found, err := s.cache.Delete(req.Key)
		if err != nil {
			return err
		}
		if found {
			s.stageDelete(req.Key)
		}
	default:
		return fmt.Errorf("kvstore: apply: %v is not a mutation", req.Op)
	}
	return s.flushWAL()
}

// Apply routes a trusted-side replica apply to the shard owning
// req.Key (see Server.Apply).
func (p *Pool) Apply(req workload.Request) error {
	sh := p.Shards[p.shardIndex(req.Key)]
	sh.Lock()
	defer sh.Unlock()
	return sh.Srv.Apply(req)
}

// DumpAll returns the pool's full key→value state — the union of the
// shard caches, which is disjoint by the key→shard invariant. It is
// the currency of cluster handoff syncs and survivor digests.
func (p *Pool) DumpAll() (map[string][]byte, error) {
	out := make(map[string][]byte)
	for i, sh := range p.Shards {
		sh.Lock()
		m, err := sh.Srv.cache.Dump()
		sh.Unlock()
		if err != nil {
			return nil, fmt.Errorf("kvstore: pool shard %d dump: %w", i, err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			out[k] = m[k]
		}
	}
	return out, nil
}
