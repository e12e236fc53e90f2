package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

func TestPickTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{19, ""},      // 9 beyond the median
		{20, "p50"},   // exactly 10 beyond
		{999, "p90"},  // p99 would leave 9
		{1000, "p99"}, // exactly 10 beyond p99
		{90000, "p99.9"},
		{100000, "p99.99"},
	} {
		if _, got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	sorted := make([]uint32, 100)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	if got := percentile(sorted, 0.50); got != 50 {
		t.Errorf("p50 of 1..100 = %d, want 50", got)
	}
	if got := percentile(sorted, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	s := summarise([]float64{10, 12, 11})
	if s.median != 11 || s.min != 10 || s.max != 12 {
		t.Errorf("summarise = %+v", s)
	}
}

// renderStream renders the first n requests of one connection's stream.
func renderStream(t *testing.T, sp spec, seed uint64, conn, n int) []byte {
	t.Helper()
	s, err := newKVStream(sp, seed, conn)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = s.next()
	}
	return renderKV(reqs)
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	sp, err := findSpec("kv-attack")
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderStream(t, sp, 7, 0, 2000), renderStream(t, sp, 7, 0, 2000)
	if !bytes.Equal(a, b) {
		t.Error("same seed gave different request bytes")
	}
	if bytes.Equal(a, renderStream(t, sp, 8, 0, 2000)) {
		t.Error("different seeds gave identical request bytes")
	}
	if bytes.Equal(a, renderStream(t, sp, 7, 1, 2000)) {
		t.Error("the two connections of one seed share a stream")
	}
	if n := bytes.Count(a, []byte(kvstore.AttackMarker)); n != 2000/sp.attackEvery {
		t.Errorf("%d exploit SETs in 2000 requests, want every %dth", n, sp.attackEvery)
	}
}

func TestConnectionsOwnDisjointKeys(t *testing.T) {
	sp := specs[0]
	owner := make(map[string]int)
	for conn := 0; conn < conns; conn++ {
		s, err := newKVStream(sp, 1, conn)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			key := s.next().Key
			if prev, seen := owner[key]; seen && prev != conn {
				t.Fatalf("key %s used by connections %d and %d", key, prev, conn)
			}
			owner[key] = conn
		}
	}
}

func TestKVReplyParser(t *testing.T) {
	binary := "a\r\nb\x00c" // a value may hold any byte, CRLF included
	wire := "VALUE key-1 0 " + strconv.Itoa(len(binary)) + "\r\n" + binary + "\r\nEND\r\n" +
		"END\r\n" +
		"STORED\r\n" +
		"SERVER_ERROR heap overflow contained\r\n" +
		"STAT cmd_total 12\r\nSTAT state ok\r\nEND\r\n" +
		"BOGUS\r\n"
	rd := newKVReader(strings.NewReader(wire))

	r, err := rd.read()
	if err != nil || r.kind != replyValue || string(r.key) != "key-1" || string(r.value) != binary {
		t.Fatalf("VALUE: %+v, %v", r, err)
	}
	if r, err = rd.read(); err != nil || r.kind != replyMiss {
		t.Fatalf("END: %+v, %v", r, err)
	}
	if r, err = rd.read(); err != nil || r.kind != replyStored {
		t.Fatalf("STORED: %+v, %v", r, err)
	}
	if r, err = rd.read(); err != nil || r.kind != replyError || !bytes.HasPrefix(r.line, []byte("SERVER_ERROR")) {
		t.Fatalf("SERVER_ERROR: %+v, %v", r, err)
	}
	stats, err := rd.readStats()
	if err != nil || stats["cmd_total"] != 12 || len(stats) != 1 {
		t.Fatalf("stats: %v, %v", stats, err)
	}
	if _, err = rd.read(); err == nil {
		t.Fatal("BOGUS parsed as a reply")
	}
}

func TestHTTPReplyParser(t *testing.T) {
	ok := "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabc"
	r, err := readHTTPReply(bufio.NewReader(strings.NewReader(ok)))
	if err != nil || r.status != 200 || string(r.body) != "abc" {
		t.Fatalf("200: %+v, %v", r, err)
	}
	busy := "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nRetry-After: 1\r\n\r\n"
	if r, err = readHTTPReply(bufio.NewReader(strings.NewReader(busy))); err != nil || r.status != 429 || len(r.body) != 0 {
		t.Fatalf("429: %+v, %v", r, err)
	}
	for _, bad := range []string{"SSH-2.0\r\n\r\n", "HTTP/1.1 200 OK\r\n\r\n", "HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc"} {
		if _, err := readHTTPReply(bufio.NewReader(strings.NewReader(bad))); err == nil {
			t.Errorf("%q parsed as a reply", bad)
		}
	}
}

func TestModelChecksRepliesAgainstAcknowledgedWrites(t *testing.T) {
	m := make(model)
	get := workload.Request{Op: workload.OpGet, Key: "k"}
	set := workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v1")}
	if !m.check(get, kvReply{kind: replyMiss}) {
		t.Error("GET of a key never set must miss")
	}
	if !m.check(set, kvReply{kind: replyStored}) {
		t.Error("STORED rejected")
	}
	attack := workload.Request{Op: workload.OpSet, Key: "k", Value: []byte(kvstore.AttackMarker + "xx")}
	if !isAttack(attack) || isAttack(set) {
		t.Error("isAttack keys on the value prefix")
	}
	if m.check(attack, kvReply{kind: replyStored}) {
		t.Error("an exploit SET that was stored must fail")
	}
	if !m.check(attack, kvReply{kind: replyError, line: []byte("SERVER_ERROR contained")}) {
		t.Error("a contained exploit SET is the correct reply")
	}
	if !m.check(get, kvReply{kind: replyValue, key: []byte("k"), value: []byte("v1")}) {
		t.Error("the value before the contained SET must still be there")
	}
	if m.check(get, kvReply{kind: replyValue, key: []byte("k"), value: []byte(kvstore.AttackMarker + "xx")}) {
		t.Error("the exploit's value must not be accepted")
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{name: spanRequest, req: 0, parent: -1, start: 0, end: 100},
		{name: spanProtocolRead, req: 0, parent: 0, start: 5, end: 25},
		{name: spanHandle, req: 0, parent: 0, start: 30, end: 90},
		{name: spanRequest, req: 1, parent: -1, start: 100, end: 160},
		{name: spanHandle, req: 1, parent: 3, start: 110, end: 150},
	}
	self := selfTimes(spans, 2)
	if self[spanRequest] != (20+20)/2 || self[spanProtocolRead] != 20/2 || self[spanHandle] != (60+40)/2 {
		t.Errorf("self times = %v", self)
	}
	var tr *tracer
	tr.end(tr.begin(spanHandle, 0, -1)) // a nil tracer records nothing and must not panic
}

func TestSummariseReportsTheBestSlice(t *testing.T) {
	begin := time.Now()
	recs := []*recorder{newRecorder(begin, 2*sliceLen), newRecorder(begin, 2*sliceLen)}
	// Slice 0 is the disturbed one: fewer, slower replies at more CPU.
	recs[0].slices[0] = []uint32{90_000, 80_000}
	recs[1].slices[0] = []uint32{70_000}
	recs[0].slices[1] = []uint32{40_000, 30_000, 20_000}
	recs[1].slices[1] = []uint32{10_000, 50_000}
	recs[0].attempted, recs[1].attempted = 5, 3
	samples := []sample{
		{at: begin, cpu: 0, verified: 0},
		{at: begin.Add(sliceLen), cpu: 90 * time.Microsecond, verified: 3},
		{at: begin.Add(2 * sliceLen), cpu: 140 * time.Microsecond, verified: 8},
	}
	res := &socketResult{}
	res.summarise(recs, samples)
	if res.throughput != 5/sliceLen.Seconds() || res.p50us != 30 || res.p99us != 50 || res.cpuPerReplyUs != 10 {
		t.Errorf("best slice: %+v", res)
	}
	if res.attempted != 8 || res.verified != 8 || res.samples != 8 {
		t.Errorf("totals: %+v", res)
	}
}

func TestParseSchedstat(t *testing.T) {
	ran, err := parseSchedstat([]byte("43951 1333123 2\n"))
	if err != nil || ran != 43951*time.Nanosecond {
		t.Errorf("ran = %v, %v; want 43.951µs", ran, err)
	}
	if _, err := parseSchedstat([]byte("garbage")); err == nil {
		t.Error("garbage parsed")
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	if w := worsening(100, 90, "higher"); w != 0.1 {
		t.Errorf("throughput 100 -> 90 worsens by %v, want 0.1", w)
	}
	if w := worsening(100, 90, "lower"); w != -0.1 {
		t.Errorf("latency 100 -> 90 worsens by %v, want -0.1", w)
	}
}

// small shrinks a workload so its in-process tests run in milliseconds.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, err := findSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.http {
		sp.keys = 400
	}
	sp.replayN = 2000
	return sp
}

func TestReplayVerifiesEveryWorkloadInProcess(t *testing.T) {
	for _, name := range []string{"kv-attack", "http-gateway", "cluster-routed"} {
		sp := small(t, name)
		in, err := newReplayInput(sp, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(0)
		res, err := runReplay(sp, in, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.requests != sp.replayN || res.failed != 0 || res.virtualNS <= 0 || res.allocs <= 0 {
			t.Errorf("%s: %+v", name, res)
		}
		again, err := runReplay(sp, in, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again.virtualNS != res.virtualNS {
			t.Errorf("%s: tracing changed virtual time: %v vs %v", name, res.virtualNS, again.virtualNS)
		}
		if self := selfTimes(tr.spans, res.requests); self[spanHandle] <= 0 {
			t.Errorf("%s: no handle spans recorded", name)
		}
	}
}

// TestSmokeKVClosed drives one second of kv-closed against the same
// server the binary builds, in-process on a loopback listener.
func TestSmokeKVClosed(t *testing.T) {
	sp := small(t, "kv-closed")
	pool, err := kvstore.NewPool(core.DefaultConfig(), kvstore.ServerConfig{Mode: kvstore.ModeSDRaD}, sp.shards, cacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := kvstore.NewBatchedNetServerPool(pool, log.New(os.Stderr, "", 0), 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	l := &live{srv: &server{addr: ln.Addr().String()}}
	if err := l.connect(sp, 1); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	recs := make([]*recorder, conns)
	errs := make(chan error, conns)
	for c := range recs {
		recs[c] = newRecorder(begin, time.Second)
		go func(c int) { errs <- l.kv[c].run(begin.Add(time.Second), recs[c]) }(c)
	}
	for range recs {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	res := &socketResult{}
	res.summarise(recs, nil)
	if res.attempted < 100 || res.failed != 0 || res.throughput <= 0 || res.p50us <= 0 || res.p99us < res.p50us {
		t.Errorf("smoke run: %+v", res)
	}

	l.closeConns()
	if err := ln.Close(); err != nil {
		t.Error(err)
	}
	if err := <-served; err != nil {
		t.Error(err)
	}
	if err := srv.Close(); err != nil {
		t.Error(err)
	}
}

// TestBenchmarkJSONMatchesTheTables keeps BENCHMARK.json, which the
// driver reads, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if strings.Join(doc.Command, " ") != "go run ./benchmark" || strings.Join(doc.Paths, " ") != "benchmark" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the program has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's", i, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s], the program reports %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
