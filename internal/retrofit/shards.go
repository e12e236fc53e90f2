package retrofit

import (
	"fmt"
	"sync"
	"time"
)

// Shard is one server of a shard pool, each on its own simulated
// machine, under the lock that upholds that machine's single-goroutine
// contract.
type Shard[S any] struct {
	sync.Mutex
	// Srv is the shard's server.
	Srv   S
	shell *Shell
}

// NewShard returns the shard of server srv, whose shell is shell.
func NewShard[S any](srv S, shell *Shell) *Shard[S] {
	return &Shard[S]{Srv: srv, shell: shell}
}

// Shards is the aggregate half of a shard pool: what a pool reads and
// sets across its servers through their shells, each under its shard
// lock. The pool keeps its own pick (which shard serves a request).
type Shards[S any] []*Shard[S]

// Workers returns the number of shards.
func (p Shards[S]) Workers() int { return len(p) }

// ResizeWorkers grows or shrinks every shard's worker-domain set to n
// (Shell.Resize). The shards themselves are fixed; a partial failure
// leaves shards at different counts and reports the first error.
func (p Shards[S]) ResizeWorkers(n int) error {
	var first error
	for i, sh := range p {
		sh.Lock()
		err := sh.shell.Resize(n)
		sh.Unlock()
		if err != nil && first == nil {
			first = fmt.Errorf("%s: pool shard %d resize: %w", sh.shell.name, i, err)
		}
	}
	return first
}

// ShardWorkers returns shard 0's worker-domain count (ResizeWorkers
// keeps every shard at the same count).
func (p Shards[S]) ShardWorkers() int {
	sh := p[0]
	sh.Lock()
	defer sh.Unlock()
	return sh.shell.Workers()
}

// Stats sums the shards' counters.
func (p Shards[S]) Stats() Counters {
	var agg Counters
	for _, sh := range p {
		sh.Lock()
		c := sh.shell.Counters
		sh.Unlock()
		agg.Requests += c.Requests
		agg.Violations += c.Violations
		agg.Crashes += c.Crashes
		agg.Dropped += c.Dropped
		agg.Preempted += c.Preempted
	}
	return agg
}

// VirtualTime returns the pool's parallel makespan: the maximum virtual
// time across shards, which run concurrently.
func (p Shards[S]) VirtualTime() time.Duration {
	var max time.Duration
	for _, sh := range p {
		sh.Lock()
		vt := sh.shell.sys.Clock().Now()
		sh.Unlock()
		if vt > max {
			max = vt
		}
	}
	return max
}

// TotalVirtualTime returns the summed virtual CPU time across shards.
func (p Shards[S]) TotalVirtualTime() time.Duration {
	var sum time.Duration
	for _, sh := range p {
		sh.Lock()
		sum += sh.shell.sys.Clock().Now()
		sh.Unlock()
	}
	return sum
}
