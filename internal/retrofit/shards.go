package retrofit

import (
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
