package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/kvstore/kvstoretest"
	"repro/internal/workload"
)

// duplex glues a script and a transcript into the io.ReadWriter the
// command loop serves.
type duplex struct {
	io.Reader
	io.Writer
}

// newTestCluster builds a serving 3-node, 1-replica router behind the
// binary's frontend.
func newTestCluster(t *testing.T) (*cluster.Router, *frontend) {
	t.Helper()
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:         3,
		Replicas:      1,
		LeaseCycles:   cluster.DefaultLeaseCycles,
		Sys:           core.DefaultConfig(),
		Server:        kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Microsecond},
		ShardsPerNode: 1,
		Capacity:      16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newFrontend(router, nil)
	if err := f.Serving(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := f.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	})
	return router, f
}

// talk runs script through one connection and returns the transcript.
func talk(f *frontend, router *cluster.Router, id int, script string) string {
	var out bytes.Buffer
	serveConn(f, router, id, &duplex{strings.NewReader(script), &out})
	return out.String()
}

// TestClusterConnRoundTrip drives the third frontend at connection
// level: data commands and scan round-trip through the router, auth is
// refused, and health lists the epoch and every node.
func TestClusterConnRoundTrip(t *testing.T) {
	router, f := newTestCluster(t)
	got := talk(f, router, 1,
		"set a 7 0 5\r\nhello\r\nset b 0 0 1\r\nx\r\nget a\r\ndelete b\r\ndelete b\r\nget b\r\nscan * 10\r\nauth tok\r\nquit\r\nget a\r\n")
	want := "STORED\r\nSTORED\r\nVALUE a 7 5\r\nhello\r\nEND\r\nDELETED\r\nNOT_FOUND\r\nEND\r\n" +
		"VALUE a 7 5\r\nhello\r\nEND\r\n" +
		"CLIENT_ERROR auth not supported by the cluster router\r\n"
	if got != want {
		t.Fatalf("transcript:\n%q\nwant:\n%q", got, want)
	}

	health := talk(f, router, 2, "health\r\n")
	if !strings.HasPrefix(health, fmt.Sprintf("STAT cluster_epoch %d\r\n", router.Epoch())) || !strings.HasSuffix(health, "END\r\n") {
		t.Fatalf("health document:\n%q", health)
	}
	for _, id := range router.NodeIDs() {
		if !strings.Contains(health, fmt.Sprintf("STAT node%d healthy age=", id)) {
			t.Errorf("health misses node %d:\n%q", id, health)
		}
	}
	if stats := talk(f, router, 3, "stats\r\n"); !strings.Contains(stats, "STAT cluster_nodes 3\r\n") || !strings.Contains(stats, "STAT cmd_total ") {
		t.Errorf("stats document:\n%q", stats)
	}
}

// TestClusterUnavailableRendering pins the wire bytes of a nacked
// request: a partitioned owner answers SERVER_ERROR with the typed
// error's text plus the router's deterministic retry hint.
func TestClusterUnavailableRendering(t *testing.T) {
	router, f := newTestCluster(t)
	owner, ok := router.Owner("k")
	if !ok {
		t.Fatal("no owner for k")
	}
	if err := router.PartitionNode(owner); err != nil {
		t.Fatal(err)
	}
	resp := router.HandleContext(t.Context(), 0, workload.Request{Op: workload.OpGet, Key: "k"})
	ue, ok := cluster.IsUnavailable(resp.Err)
	if !ok {
		t.Fatalf("partitioned owner answered %+v, want *UnavailableError", resp)
	}
	got := talk(f, router, 1, "get k\r\nset k 0 0 1\r\nv\r\n")
	line := fmt.Sprintf("SERVER_ERROR cluster: slot %d unavailable (node %d partitioned) retry-after-cycles=%d (retry-cycles %d)\r\n",
		ue.Slot, owner, ue.RetryCycles, ue.RetryCycles)
	if got != line+line {
		t.Fatalf("transcript:\n%q\nwant twice:\n%q", got, line)
	}
	if ue.RetryCycles == 0 {
		t.Error("retry hint is zero")
	}
}

// TestClusterProtocolErrorClosesConnection is the stream-desync
// regression: ReadCommand rejects an oversized SET header before
// consuming its data block, so a loop that read on would execute the
// attacker-supplied block as commands. The connection must answer one
// CLIENT_ERROR and close.
func TestClusterProtocolErrorClosesConnection(t *testing.T) {
	router, f := newTestCluster(t)
	if got := talk(f, router, 1, "set victim 0 0 1\r\nv\r\n"); got != "STORED\r\n" {
		t.Fatalf("seed: %q", got)
	}
	got := talk(f, router, 2, "set k 0 0 99999999\r\ndelete victim\r\n")
	if strings.Count(got, "\r\n") != 1 || !strings.HasPrefix(got, "CLIENT_ERROR ") {
		t.Fatalf("transcript %q, want exactly one CLIENT_ERROR line", got)
	}
	if strings.Contains(got, "DELETED") || strings.Contains(got, "NOT_FOUND") {
		t.Fatalf("data block was parsed as a command: %q", got)
	}
	if got := talk(f, router, 3, "get victim\r\n"); got != "VALUE victim 0 1\r\nv\r\nEND\r\n" {
		t.Fatalf("victim did not survive: %q", got)
	}
}

// TestFlushRule runs the flush-rule battery against the cluster
// binary's loop: one write per drained window, nothing stranded behind
// a half-received command, every way out of the loop flushes.
func TestFlushRule(t *testing.T) {
	kvstoretest.FlushRule(t, func(t *testing.T) func(conn io.ReadWriter) {
		router, f := newTestCluster(t)
		return func(conn io.ReadWriter) { serveConn(f, router, 1, conn) }
	})
}
