package cluster

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// TestRouterRefusesOutOfBoundRequests: the router checks every request
// against the wire bounds before it routes it, and a refusal carries the
// typed ErrWire text DecodeRequest gives the same request's frame.
// Nothing refused runs.
func TestRouterRefusesOutOfBoundRequests(t *testing.T) {
	r := testRouter(t, 3, 1, false)
	for _, tc := range []struct {
		name string
		req  workload.Request
		want string
	}{
		{"empty key", workload.Request{Op: workload.OpSet, Key: "", Value: []byte("v")}, "cluster: malformed wire frame: key length"},
		{"long key", workload.Request{Op: workload.OpGet, Key: strings.Repeat("k", MaxWireKeyLen+1)}, "cluster: malformed wire frame: key length"},
		{"ttl overflow", workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v"), TTL: time.Duration(1<<62 + 1)}, "cluster: malformed wire frame: ttl"},
	} {
		if _, err := DecodeRequest(EncodeRequest(0, tc.req)); err == nil || err.Error() != tc.want {
			t.Fatalf("%s: the codec says %v, want %q", tc.name, err, tc.want)
		}
		before := r.Stats().Requests
		resp := r.HandleContext(context.Background(), 0, tc.req)
		if !errors.Is(resp.Err, ErrWire) || resp.Err.Error() != tc.want {
			t.Errorf("%s: HandleContext err = %v, want %q", tc.name, resp.Err, tc.want)
		}
		if got := r.Stats().Requests - before; got != 0 {
			t.Errorf("%s: %d refused requests reached a node, want 0", tc.name, got)
		}
	}
}

// TestRouterIDsFollowMembership: the router's cached fleet order and the
// registry's cached member order equal a fresh sort of their maps after
// every membership change, and NodeIDs hands out a copy.
func TestRouterIDsFollowMembership(t *testing.T) {
	r := testRouter(t, 4, 1, false)
	check := func(step string) {
		t.Helper()
		r.mu.RLock()
		defer r.mu.RUnlock()
		want := make([]NodeID, 0, len(r.nodes))
		for id := range r.nodes {
			want = append(want, id)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !slices.Equal(r.ids, want) {
			t.Errorf("%s: router ids %v, want %v", step, r.ids, want)
		}
		reg := r.reg
		reg.mu.Lock()
		defer reg.mu.Unlock()
		members := make([]NodeID, 0, len(reg.members))
		for id := range reg.members {
			members = append(members, id)
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		if got := reg.sortedIDsLocked(); !slices.Equal(got, members) {
			t.Errorf("%s: registry ids %v, want %v", step, got, members)
		}
	}
	check("start")
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"fail 1", func() error { return r.FailNode(1) }},
		{"join 6", func() error { return r.JoinNode(6) }},
		{"join 1", func() error { return r.JoinNode(1) }},
		{"retire 2", func() error { return r.RetireNode(2) }},
		{"fail 0", func() error { return r.FailNode(0) }},
		{"join 2", func() error { return r.JoinNode(2) }},
		{"deregister 0", func() error { return r.reg.Deregister(0) }},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		getKey(r, "tick") // one request: ticks, heartbeats and sweeps
		check(step.name)
	}
	ids := r.NodeIDs()
	ids[0] = 99
	if r.NodeIDs()[0] == 99 {
		t.Error("NodeIDs shares the router's slice")
	}
}

// TestRouterHandleAllocations pins the host garbage of one routed
// request: a SET over a resident key allocates nothing — no codec round
// trip, no sort of the fleet or the members, no per-request staging
// buffer, no new cache entry on the primary or the replica — and a GET
// hit allocates only the value it copies out of the storage domain.
func TestRouterHandleAllocations(t *testing.T) {
	ctx := context.Background()
	set := workload.Request{Op: workload.OpSet, Key: "key-00000042", Value: []byte("value-of-some-length")}
	get := workload.Request{Op: workload.OpGet, Key: set.Key}
	for _, readReplicas := range []bool{false, true} {
		r := testRouter(t, 3, 1, readReplicas)
		for _, tc := range []struct {
			req  workload.Request
			want float64
		}{{set, 0}, {get, 1}} {
			serve := func() {
				if resp := r.HandleContext(ctx, 0, tc.req); !resp.OK || resp.Err != nil {
					t.Fatalf("%v: ok=%v err=%v", tc.req.Op, resp.OK, resp.Err)
				}
			}
			serve() // the key is resident and the staging buffers are grown
			if allocs := testing.AllocsPerRun(100, serve); allocs != tc.want {
				t.Errorf("ReadReplicas=%v: a routed %v allocates %v times, want %v",
					readReplicas, tc.req.Op, allocs, tc.want)
			}
		}
	}
}

// TestReadTargetRotation pins which holder serves each read-replica GET:
// the (seq mod n)-th of the slot's n reachable holders, in holder order,
// with the primary as the answer when none is reachable. The oracle is
// the rotation written out as a slice of the reachable holders.
func TestReadTargetRotation(t *testing.T) {
	r := testRouter(t, 4, 2, true)
	oracle := func(holders []NodeID, seq uint64) NodeID {
		var reachable []NodeID
		for _, id := range holders {
			if _, ok := r.nodes[id]; ok && !r.partitioned[id] {
				reachable = append(reachable, id)
			}
		}
		if len(reachable) == 0 {
			return holders[0]
		}
		return reachable[int(seq%uint64(len(reachable)))]
	}
	check := func(stage string) {
		t.Helper()
		r.mu.RLock()
		defer r.mu.RUnlock()
		for slot := 0; slot < NumSlots; slot += 97 {
			holders := r.assign[slot]
			for seq := uint64(0); seq < 12; seq++ {
				if got, want := r.readTargetLocked(holders, seq), oracle(holders, seq); got != want {
					t.Fatalf("%s: slot %d holders %v seq %d: read target %d, want %d",
						stage, slot, holders, seq, got, want)
				}
			}
		}
	}
	check("all reachable")
	r.mu.RLock()
	partitioned := r.assign[0][1]
	r.mu.RUnlock()
	if err := r.PartitionNode(partitioned); err != nil {
		t.Fatal(err)
	}
	check("one holder partitioned")
	for _, id := range r.NodeIDs() {
		if id != partitioned {
			if err := r.PartitionNode(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("every holder partitioned")
}

// TestReplicasApplyWritesInPrimaryOrder is the replica write-order
// regression: SET k=a parks between its primary apply and its
// replication, SET k=b of the same key is sent meanwhile, and once a is
// released both holders must hold the same value. Without the slot lock
// b overtakes a on the replica — b is acked while a is parked — and the
// holders disagree for good. The subtest names the dispatch path it
// drives.
func TestReplicasApplyWritesInPrimaryOrder(t *testing.T) {
	set := func(val string) workload.Request {
		return workload.Request{Op: workload.OpSet, Key: "k", Value: []byte(val)}
	}
	t.Run("HandleContext", func(t *testing.T) {
		r := testRouter(t, 2, 1, false)
		parked, release := make(chan struct{}), make(chan struct{})
		testHookAfterPrimary = func(req workload.Request) {
			if string(req.Value) == "a" {
				close(parked)
				<-release
			}
		}
		t.Cleanup(func() { testHookAfterPrimary = nil })
		doneA, doneB := make(chan kvstore.Response, 1), make(chan kvstore.Response, 1)
		go func() { doneA <- r.HandleContext(context.Background(), 0, set("a")) }()
		<-parked
		go func() { doneB <- r.HandleContext(context.Background(), 0, set("b")) }()
		var respB kvstore.Response
		bDone := false
		select {
		case respB = <-doneB:
			bDone = true
		case <-time.After(100 * time.Millisecond):
		}
		close(release)
		respA := <-doneA
		if !bDone {
			respB = <-doneB
		}
		if !respA.OK || respA.Err != nil || !respB.OK || respB.Err != nil {
			t.Fatalf("SETs failed: a ok=%v err=%v, b ok=%v err=%v", respA.OK, respA.Err, respB.OK, respB.Err)
		}
		var held []string
		for _, id := range r.NodeIDs() {
			dump, err := r.nodes[id].Dump()
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, string(dump["k"]))
		}
		if held[0] != held[1] {
			t.Fatalf("holders disagree: %v (b acked while a was parked: %v)", held, bDone)
		}
	})
}
