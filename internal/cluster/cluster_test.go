package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
	"repro/internal/workload"
)

func testRouter(t *testing.T, nodes, replicas int, readReplicas bool) *Router {
	t.Helper()
	r, err := NewRouter(RouterConfig{
		Nodes:    nodes,
		Replicas: replicas,
		Sys:      core.DefaultConfig(),
		Server: kvstore.ServerConfig{
			Mode:         kvstore.ModeSDRaD,
			Workers:      2,
			InterArrival: time.Nanosecond,
		},
		Capacity:     32 << 20,
		ReadReplicas: readReplicas,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func setKey(t *testing.T, r *Router, key, val string) {
	t.Helper()
	resp := r.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpSet, Key: key, Value: []byte(val)})
	if resp.Err != nil || !resp.OK {
		t.Fatalf("set %q: ok=%v err=%v", key, resp.OK, resp.Err)
	}
}

func getKey(r *Router, key string) kvstore.Response {
	return r.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpGet, Key: key})
}

// keyOwnedBy finds a key whose slot is primaried by the given node.
func keyOwnedBy(t *testing.T, r *Router, id NodeID) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := fmt.Sprintf("key-%08d", i)
		r.mu.RLock()
		holders := r.assign[KeySlot(k)]
		r.mu.RUnlock()
		if len(holders) > 0 && holders[0] == id {
			return k
		}
	}
	t.Fatalf("no key primaried by node %d", id)
	return ""
}

// memberState returns id's lease-derived state in r's snapshot: an
// unregistered id is Stopped.
func memberState(r *Registry, id NodeID) MemberState {
	for _, m := range r.Snapshot() {
		if m.ID == id {
			return m.State
		}
	}
	return lifecycle.StateStopped
}

// TestRegistryLeaseTransitions walks a session through the lease state
// machine: Healthy within the lease, Degraded in the grace window,
// Dead beyond it, and rejoin-only-by-reregistering afterwards.
func TestRegistryLeaseTransitions(t *testing.T) {
	r := NewRegistry(4)
	defer r.Close()
	if err := r.Register(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(0); err == nil {
		t.Fatal("re-registering a live session succeeded")
	} else if _, ok := IsMembership(err); !ok {
		t.Fatalf("re-register error = %T, want *MembershipError", err)
	}
	epoch := r.Epoch()

	r.Tick(4)
	if st := memberState(r, 0); st != lifecycle.StateHealthy {
		t.Fatalf("age=lease state = %v, want Healthy", st)
	}
	r.Tick(1)
	if st := memberState(r, 0); st != lifecycle.StateDegraded {
		t.Fatalf("age=lease+1 state = %v, want Degraded", st)
	}
	if err := r.Renew(0); err != nil {
		t.Fatal(err)
	}
	if st := memberState(r, 0); st != lifecycle.StateHealthy {
		t.Fatalf("renewed state = %v, want Healthy", st)
	}

	r.Tick(4) // node 1's age is now 9 > 2*lease
	if st := memberState(r, 1); st != lifecycle.StateStopped {
		t.Fatalf("expired state = %v, want Stopped", st)
	}
	died := r.Sweep()
	if len(died) != 1 || died[0] != 1 {
		t.Fatalf("Sweep = %v, want [1]", died)
	}
	if r.Epoch() == epoch {
		t.Fatal("death did not bump the epoch")
	}
	if err := r.Renew(1); err == nil {
		t.Fatal("renewing a dead session succeeded")
	}
	if err := r.Register(1); err != nil {
		t.Fatalf("rejoin after death: %v", err)
	}
	if st := memberState(r, 1); st != lifecycle.StateHealthy {
		t.Fatalf("rejoined state = %v, want Healthy", st)
	}
	if err := r.Deregister(0); err != nil {
		t.Fatal(err)
	}
	if st := memberState(r, 0); st != lifecycle.StateStopped {
		t.Fatalf("deregistered state = %v, want Stopped", st)
	}
}

// TestPlacementDeterministicMinimalReshuffle checks the rendezvous
// ranking: stable across calls, identity-stable across leave/rejoin,
// and removing one node moves only that node's slots.
func TestPlacementDeterministicMinimalReshuffle(t *testing.T) {
	all := []NodeID{0, 1, 2, 3}
	without2 := []NodeID{0, 1, 3}
	moved := 0
	for slot := 0; slot < NumSlots; slot++ {
		a := RankNodes(slot, all)
		b := RankNodes(slot, all)
		if len(a) != len(all) {
			t.Fatalf("slot %d: ranked %d of %d nodes", slot, len(a), len(all))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d: ranking not deterministic: %v vs %v", slot, a, b)
			}
		}
		c := RankNodes(slot, without2)
		if a[0] != 2 {
			if c[0] != a[0] {
				t.Errorf("slot %d: primary moved %d -> %d though node 2 did not own it", slot, a[0], c[0])
			}
		} else {
			moved++
			if c[0] != a[1] {
				t.Errorf("slot %d: expected promotion of rank-1 %d, got %d", slot, a[1], c[0])
			}
		}
		// Rejoin: the original ranking is a pure function of identity.
		d := RankNodes(slot, all)
		if d[0] != a[0] {
			t.Errorf("slot %d: rejoin did not restore primary %d (got %d)", slot, a[0], d[0])
		}
	}
	if moved == 0 {
		t.Fatal("node 2 owned no slots; weight function is degenerate")
	}
	if moved == NumSlots {
		t.Fatal("node 2 owned every slot; weight function is degenerate")
	}
}

// TestClusterCrashFailoverLossless seeds data across a replicated
// cluster, crash-kills a node, and asserts the surviving placement
// serves every key with its exact value (synchronous replica promotion
// is lossless), then rejoins the node and checks again.
func TestClusterCrashFailoverLossless(t *testing.T) {
	r := testRouter(t, 3, 1, false)
	want := make(map[string]string)
	for i := 0; i < 150; i++ {
		k := fmt.Sprintf("key-%08d", i)
		v := fmt.Sprintf("value-%d", i)
		setKey(t, r, k, v)
		want[k] = v
	}
	epoch := r.Epoch()
	if err := r.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if r.Handoffs() == 0 {
		t.Fatal("crash triggered no handoffs")
	}
	if r.Epoch() == epoch {
		t.Fatal("crash did not bump the membership epoch")
	}
	for k, v := range want {
		resp := getKey(r, k)
		if resp.Err != nil || !resp.OK || !bytes.Equal(resp.Value, []byte(v)) {
			t.Fatalf("after crash, get %q = ok=%v err=%v val=%q, want %q", k, resp.OK, resp.Err, resp.Value, v)
		}
	}
	if err := r.JoinNode(1); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		resp := getKey(r, k)
		if resp.Err != nil || !resp.OK || !bytes.Equal(resp.Value, []byte(v)) {
			t.Fatalf("after rejoin, get %q = ok=%v err=%v, want %q", k, resp.OK, resp.Err, v)
		}
	}
}

// TestClusterRollingRestartLossless retires and rejoins every node in
// turn with zero replicas: the graceful handoff itself must carry
// every byte.
func TestClusterRollingRestartLossless(t *testing.T) {
	r := testRouter(t, 3, 0, false)
	want := make(map[string]string)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key-%08d", i)
		v := fmt.Sprintf("value-%d", i)
		setKey(t, r, k, v)
		want[k] = v
	}
	for id := NodeID(0); id < 3; id++ {
		if err := r.RetireNode(id); err != nil {
			t.Fatalf("retire %d: %v", id, err)
		}
		if err := r.JoinNode(id); err != nil {
			t.Fatalf("rejoin %d: %v", id, err)
		}
	}
	if r.Handoffs() == 0 {
		t.Fatal("rolling restart triggered no handoffs")
	}
	for k, v := range want {
		resp := getKey(r, k)
		if resp.Err != nil || !resp.OK || !bytes.Equal(resp.Value, []byte(v)) {
			t.Fatalf("after rolling restart, get %q = ok=%v err=%v, want %q", k, resp.OK, resp.Err, v)
		}
	}
}

// TestClusterPartitionNackAndHealResync checks the partition window's
// contract: requests owned by the partitioned node nack with a typed
// *UnavailableError (never executed), other slots keep serving, and
// heal resyncs the node — including reconciling a delete it missed, so
// a later failover cannot resurrect the key.
func TestClusterPartitionNackAndHealResync(t *testing.T) {
	r := testRouter(t, 2, 1, false)
	k0 := keyOwnedBy(t, r, 0)
	k1 := keyOwnedBy(t, r, 1)
	setKey(t, r, k0, "zero")
	setKey(t, r, k1, "one")

	if err := r.PartitionNode(0); err != nil {
		t.Fatal(err)
	}
	resp := getKey(r, k0)
	u, ok := IsUnavailable(resp.Err)
	if !ok {
		t.Fatalf("partitioned owner's key: err = %v, want *UnavailableError", resp.Err)
	}
	if u.Node != 0 || u.RetryCycles == 0 {
		t.Fatalf("unavailable = %+v, want node 0 with a retry hint", u)
	}
	wresp := r.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpSet, Key: k0, Value: []byte("lost?")})
	if _, ok := IsUnavailable(wresp.Err); !ok {
		t.Fatalf("partitioned owner's write: err = %v, want *UnavailableError", wresp.Err)
	}
	if resp := getKey(r, k1); resp.Err != nil || !resp.OK {
		t.Fatalf("healthy owner's key failed during partition: ok=%v err=%v", resp.OK, resp.Err)
	}

	// Node 1's slot mutates while node 0 (its replica) is unreachable:
	// the delete must not survive on node 0's stale copy.
	delResp := r.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpDelete, Key: k1})
	if delResp.Err != nil || !delResp.OK {
		t.Fatalf("delete during partition: ok=%v err=%v", delResp.OK, delResp.Err)
	}

	if err := r.HealNode(0); err != nil {
		t.Fatal(err)
	}
	if resp := getKey(r, k0); resp.Err != nil || !resp.OK || !bytes.Equal(resp.Value, []byte("zero")) {
		t.Fatalf("after heal, get %q = ok=%v err=%v val=%q", k0, resp.OK, resp.Err, resp.Value)
	}
	if r.Unavailable() == 0 {
		t.Fatal("partition window nacked nothing")
	}
	// Promote node 0 over node 1's slots: the missed delete must stay
	// deleted.
	if err := r.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if resp := getKey(r, k1); resp.Err != nil || resp.OK {
		t.Fatalf("deleted key resurrected after failover: ok=%v err=%v val=%q", resp.OK, resp.Err, resp.Value)
	}
}

// TestClusterScanMergesAcrossNodes checks the cluster scan: pages
// merge across nodes in sorted order, replica copies deduplicate, and
// the cursor walks the whole table exactly once.
func TestClusterScanMergesAcrossNodes(t *testing.T) {
	r := testRouter(t, 3, 1, false)
	want := make(map[string]bool)
	for i := 0; i < 90; i++ {
		k := fmt.Sprintf("key-%08d", i)
		setKey(t, r, k, "v")
		want[k] = true
	}
	got := make(map[string]bool)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 30 {
			t.Fatal("scan did not terminate")
		}
		res, err := r.Scan("key-", cursor, 16)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range res.Items {
			if got[it.Key] {
				t.Fatalf("key %q returned twice", it.Key)
			}
			if i > 0 && res.Items[i-1].Key >= it.Key {
				t.Fatalf("page out of order: %q >= %q", res.Items[i-1].Key, it.Key)
			}
			got[it.Key] = true
		}
		if res.Cursor == "" {
			break
		}
		cursor = res.Cursor
	}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(want))
	}
}

// TestClusterChurnDispatchHammer is the -race hammer: sustained
// concurrent dispatch of unique-key SETs while a churn goroutine
// crash-kills and rejoins a node. The membership lock's contract is
// asserted exactly: every acked key is present with its value, every
// nacked key is absent, and submitted == acked + nacked (no request
// double-executed or silently dropped).
func TestClusterChurnDispatchHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer is not short")
	}
	// Replicas = 2 of 3 nodes: every slot survives any single-node
	// crash, so an acked write can never be lost mid-churn.
	r := testRouter(t, 3, 2, false)
	const workers = 4
	const perWorker = 250

	type record struct {
		key   string
		acked bool
	}
	results := make([][]record, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		results[w] = make([]record, 0, perWorker)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("hammer-w%02d-%06d", w, i)
				resp := r.HandleContext(ctx, w, workload.Request{
					Op: workload.OpSet, Key: key, Value: []byte(key),
				})
				switch {
				case resp.Err == nil && resp.OK:
					results[w] = append(results[w], record{key, true})
				default:
					if _, ok := IsUnavailable(resp.Err); !ok {
						t.Errorf("set %q: unexpected failure ok=%v err=%v", key, resp.OK, resp.Err)
						return
					}
					results[w] = append(results[w], record{key, false})
				}
			}
		}(w)
	}
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for c := 0; c < 8; c++ {
			if err := r.FailNode(1); err != nil {
				t.Errorf("churn %d fail: %v", c, err)
				return
			}
			if err := r.JoinNode(1); err != nil {
				t.Errorf("churn %d join: %v", c, err)
				return
			}
			if err := r.PartitionNode(2); err != nil {
				t.Errorf("churn %d partition: %v", c, err)
				return
			}
			if err := r.HealNode(2); err != nil {
				t.Errorf("churn %d heal: %v", c, err)
				return
			}
		}
	}()
	wg.Wait()
	<-churnDone
	if t.Failed() {
		return
	}

	state, err := r.Dump()
	if err != nil {
		t.Fatal(err)
	}
	acked, nacked := 0, 0
	for w := range results {
		for _, rec := range results[w] {
			if rec.acked {
				acked++
				v, ok := state[rec.key]
				if !ok {
					t.Fatalf("acked key %q missing from survivor state", rec.key)
				}
				if !bytes.Equal(v, []byte(rec.key)) {
					t.Fatalf("acked key %q has value %q, want %q", rec.key, v, rec.key)
				}
			} else {
				nacked++
				if _, ok := state[rec.key]; ok {
					t.Fatalf("nacked key %q was executed anyway", rec.key)
				}
			}
		}
	}
	if acked+nacked != workers*perWorker {
		t.Fatalf("submitted %d, accounted %d acked + %d nacked", workers*perWorker, acked, nacked)
	}
	if acked == 0 {
		t.Fatal("hammer acked nothing; scenario checks nothing")
	}
}
