package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/workload"
)

// newDurableServer builds a full SDRaD server persisting into dir.
func newDurableServer(t *testing.T, dir string, snapEvery int, pm *metrics.Persist) *Server {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 8<<20)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{
		Mode:         ModeSDRaD,
		Workers:      2,
		InterArrival: time.Nanosecond,
		Persist:      &PersistConfig{Dir: dir, Fsync: true, SnapshotEvery: snapEvery, Metrics: pm},
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return srv
}

func setReq(key, val string) workload.Request {
	return workload.Request{Op: workload.OpSet, Key: key, Value: []byte(val)}
}

func dumpOrFatal(t *testing.T, c *Cache) map[string][]byte {
	t.Helper()
	m, err := c.Dump()
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return m
}

func requireSameState(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("state size mismatch: want %d items, got %d", len(want), len(got))
	}
	for k, v := range want {
		gv, ok := got[k]
		if !ok {
			t.Fatalf("key %q lost", k)
		}
		if !bytes.Equal(v, gv) {
			t.Fatalf("key %q = %q, want %q", k, gv, v)
		}
	}
}

func TestServerPersistRoundTripWALOnly(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 0, nil)
	for i := 0; i < 40; i++ {
		if resp := srv.Handle(i, setReq(fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-%02d", i))); !resp.OK || resp.Err != nil {
			t.Fatalf("set %d: %+v", i, resp)
		}
	}
	for i := 0; i < 40; i += 4 {
		if resp := srv.Handle(i, workload.Request{Op: workload.OpDelete, Key: fmt.Sprintf("k-%02d", i)}); !resp.OK || resp.Err != nil {
			t.Fatalf("delete %d: %+v", i, resp)
		}
	}
	want := dumpOrFatal(t, srv.Cache())
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2 := newDurableServer(t, dir, 0, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	requireSameState(t, want, dumpOrFatal(t, srv2.Cache()))
	// The recovered server keeps serving: reads hit, writes persist.
	if resp := srv2.Handle(1, workload.Request{Op: workload.OpGet, Key: "k-01"}); !resp.OK || string(resp.Value) != "v-01" {
		t.Fatalf("recovered get: %+v", resp)
	}
}

func TestServerPersistSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	var pm metrics.Persist
	srv := newDurableServer(t, dir, 2, &pm)
	// Drive batches so the every-2-batches cadence fires repeatedly, with
	// interleaved overwrites and deletes to exercise incremental deltas.
	for round := 0; round < 6; round++ {
		batch := make([]BatchRequest, 8)
		for i := range batch {
			key := fmt.Sprintf("k-%02d", (round*3+i)%10)
			batch[i] = BatchRequest{ClientID: i, Req: setReq(key, fmt.Sprintf("r%d-%d", round, i))}
		}
		batch[7] = BatchRequest{ClientID: 7, Req: workload.Request{Op: workload.OpDelete, Key: "k-00"}}
		for i, resp := range srv.HandleBatch(batch) {
			if resp.Err != nil {
				t.Fatalf("round %d req %d: %v", round, i, resp.Err)
			}
		}
	}
	// A GET-only batch stages no records, so it costs no append and no
	// sync.
	reads := make([]BatchRequest, 8)
	for i := range reads {
		reads[i] = BatchRequest{ClientID: i, Req: workload.Request{Op: workload.OpGet, Key: fmt.Sprintf("k-%02d", i)}}
	}
	for i, resp := range srv.HandleBatch(reads) {
		if resp.Err != nil {
			t.Fatalf("read batch req %d: %v", i, resp.Err)
		}
	}
	snaps := pm.Snapshot()
	if snaps.Snapshots < 2 {
		t.Fatalf("cadence never fired: %+v", snaps)
	}
	// One group commit per mutating batch, not per op: 6 batches, 6
	// appends.
	if snaps.Appends != 6 {
		t.Fatalf("appends = %d, want 6 (one per mutating batch)", snaps.Appends)
	}
	if snaps.Fsyncs != snaps.Appends {
		t.Fatalf("fsync-on store: fsyncs %d != appends %d", snaps.Fsyncs, snaps.Appends)
	}
	want := dumpOrFatal(t, srv.Cache())
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2 := newDurableServer(t, dir, 2, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	requireSameState(t, want, dumpOrFatal(t, srv2.Cache()))
}

func TestViolationRewindAbortsWALRecords(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 0, nil)
	batch := []BatchRequest{
		{ClientID: 0, Req: setReq("good-1", "a")},
		{ClientID: 0, Req: workload.Request{Op: workload.OpSet, Key: "evil", Value: []byte("x"), Malicious: true}},
		{ClientID: 0, Req: setReq("good-2", "b")},
		{ClientID: 1, Req: setReq("good-3", "c")},
	}
	out := srv.HandleBatch(batch)
	if !out[1].Contained {
		t.Fatalf("malicious request not contained: %+v", out[1])
	}
	for _, i := range []int{0, 2, 3} {
		if !out[i].OK || out[i].Err != nil {
			t.Fatalf("clean request %d: %+v", i, out[i])
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2 := newDurableServer(t, dir, 0, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got := dumpOrFatal(t, srv2.Cache())
	if _, ok := got["evil"]; ok {
		t.Fatal("rewound request's write survived recovery")
	}
	for _, k := range []string{"good-1", "good-2", "good-3"} {
		if _, ok := got[k]; !ok {
			t.Fatalf("acknowledged key %q lost", k)
		}
	}
	// The commit hook observed the degraded batch.
	if st := srv.Stats(); st.BatchesDegraded == 0 {
		t.Fatalf("batch commit hook saw no degraded batch: %+v", st)
	}
}

func TestKilledCommitWithdrawsAcks(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 0, nil)
	if resp := srv.Handle(0, setReq("durable", "yes")); !resp.OK {
		t.Fatalf("set: %+v", resp)
	}
	fs, ok := srv.Store().(*persist.FileStore)
	if !ok {
		t.Fatalf("store is %T", srv.Store())
	}
	fs.KillNextAppend(0.4)
	batch := []BatchRequest{
		{ClientID: 0, Req: setReq("lost-1", "a")},
		{ClientID: 1, Req: setReq("lost-2", "b")},
		{ClientID: 0, Req: workload.Request{Op: workload.OpGet, Key: "durable"}},
	}
	out := srv.HandleBatch(batch)
	// The commit died: mutation acks are withdrawn, the pure read stands.
	if out[0].Err == nil || out[0].OK {
		t.Fatalf("killed commit still acked: %+v", out[0])
	}
	if out[1].Err == nil || out[1].OK {
		t.Fatalf("killed commit still acked: %+v", out[1])
	}
	if !out[2].OK || out[2].Err != nil {
		t.Fatalf("read caught in commit failure: %+v", out[2])
	}

	srv2 := newDurableServer(t, dir, 0, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got := dumpOrFatal(t, srv2.Cache())
	if _, ok := got["lost-1"]; ok {
		t.Fatal("unacknowledged write survived the torn commit")
	}
	if v, ok := got["durable"]; !ok || string(v) != "yes" {
		t.Fatalf("committed write lost: %q %v", v, ok)
	}
}

func TestFailedCommitFailStopsShard(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 1, nil) // snapshot every batch: maximal pressure
	if resp := srv.Handle(0, setReq("durable", "yes")); !resp.OK {
		t.Fatalf("set: %+v", resp)
	}
	fs, ok := srv.Store().(*persist.FileStore)
	if !ok {
		t.Fatalf("store is %T", srv.Store())
	}
	fs.KillNextAppend(0.4)
	if resp := srv.Handle(0, setReq("nacked", "x")); resp.OK || resp.Err == nil {
		t.Fatalf("killed commit still acked: %+v", resp)
	}
	// The shard fail-stopped: the nacked mutation is still in the
	// in-memory cache, so every later request — including the reads that
	// would observe it and the batches whose snapshot cadence would make
	// it durable — is refused.
	if resp := srv.Handle(0, setReq("after", "x")); !errors.Is(resp.Err, ErrShardFailed) {
		t.Fatalf("post-failure set err = %v, want ErrShardFailed", resp.Err)
	}
	if resp := srv.Handle(0, workload.Request{Op: workload.OpGet, Key: "nacked"}); !errors.Is(resp.Err, ErrShardFailed) {
		t.Fatalf("post-failure get err = %v, want ErrShardFailed", resp.Err)
	}
	out := srv.HandleBatch([]BatchRequest{
		{ClientID: 0, Req: setReq("b-1", "x")},
		{ClientID: 1, Req: setReq("b-2", "y")},
	})
	for i, resp := range out {
		if !errors.Is(resp.Err, ErrShardFailed) {
			t.Fatalf("post-failure batch req %d err = %v, want ErrShardFailed", i, resp.Err)
		}
	}
	if st := srv.Stats(); st.Dropped < 4 {
		t.Fatalf("refused requests not accounted as dropped: %+v", st)
	}

	// Recovery yields exactly the acknowledged prefix: nothing the
	// fail-stopped shard refused (or nacked) became durable.
	srv2 := newDurableServer(t, dir, 1, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	got := dumpOrFatal(t, srv2.Cache())
	for _, k := range []string{"nacked", "after", "b-1", "b-2"} {
		if _, ok := got[k]; ok {
			t.Fatalf("unacknowledged key %q survived the fail-stop", k)
		}
	}
	if v, ok := got["durable"]; !ok || string(v) != "yes" {
		t.Fatalf("committed write lost: %q %v", v, ok)
	}
}

// errInjectedSnap is the failure flakySnapStore injects.
var errInjectedSnap = errors.New("injected snapshot failure")

// flakySnapStore wraps a Store and fails its first N Snapshot calls,
// honoring the Store contract by retaining the rejected deltas for the
// eventual successful commit.
type flakySnapStore struct {
	persist.Store
	failures int
	held     []persist.SnapshotPage
	commits  int
}

func (f *flakySnapStore) Snapshot(meta []byte, delta []persist.SnapshotPage) error {
	if f.failures > 0 {
		f.failures--
		f.held = append(f.held, delta...)
		return errInjectedSnap
	}
	delta = append(f.held, delta...)
	f.held = nil
	f.commits++
	return f.Store.Snapshot(meta, delta)
}

func TestSnapshotFailureDegradesWithoutNacking(t *testing.T) {
	dir := t.TempDir()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 8<<20)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	fs, err := persist.OpenFile(dir, persist.FileConfig{Fsync: true})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	flaky := &flakySnapStore{Store: fs, failures: 2}
	if err := srv.AttachStore(flaky, 2); err != nil {
		t.Fatalf("AttachStore: %v", err)
	}

	// Drive batches across the failing cadence points. Every mutation's
	// WAL record commits before the snapshot attempt, so every ack must
	// stand — a snapshot failure is degradation, not data loss.
	degraded := false
	for round := 0; round < 8; round++ {
		batch := make([]BatchRequest, 4)
		for i := range batch {
			batch[i] = BatchRequest{ClientID: i, Req: setReq(fmt.Sprintf("k-%d-%d", round, i), fmt.Sprintf("v-%d", round))}
		}
		for i, resp := range srv.HandleBatch(batch) {
			if !resp.OK || resp.Err != nil {
				t.Fatalf("round %d req %d nacked by snapshot failure: %+v", round, i, resp)
			}
		}
		if srv.SnapshotErr() != nil {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("injected snapshot failures never surfaced via SnapshotErr")
	}
	// The cadence retried past the injected failures and committed.
	if flaky.commits == 0 {
		t.Fatal("snapshot never recovered from the injected failures")
	}
	if srv.SnapshotErr() != nil {
		t.Fatalf("SnapshotErr still set after a successful snapshot: %v", srv.SnapshotErr())
	}

	want := dumpOrFatal(t, srv.Cache())
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv2 := newDurableServer(t, dir, 2, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	requireSameState(t, want, dumpOrFatal(t, srv2.Cache()))
}

func TestPersistTTLSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 0, nil)
	if resp := srv.Handle(0, workload.Request{Op: workload.OpSet, Key: "ttl", Value: []byte("v"), TTL: time.Hour}); !resp.OK {
		t.Fatalf("set: %+v", resp)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv2 := newDurableServer(t, dir, 0, nil)
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	el, ok := srv2.Cache().item["ttl"]
	if !ok {
		t.Fatal("ttl key lost")
	}
	if el.Value.(*entry).expireAt <= 0 {
		t.Fatal("absolute expiry lost in recovery")
	}
	if resp := srv2.Handle(0, workload.Request{Op: workload.OpGet, Key: "ttl"}); !resp.OK {
		t.Fatalf("get before expiry: %+v", resp)
	}
}

func TestPoolPersistsPerShard(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
		Persist: &PersistConfig{Dir: dir, Fsync: true},
	}
	pool, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	for i := 0; i < 50; i++ {
		if resp := pool.HandleContext(context.Background(), i, setReq(workload.Key(i), fmt.Sprintf("val-%d", i))); !resp.OK || resp.Err != nil {
			t.Fatalf("set %d: %+v", i, resp)
		}
	}
	var want []map[string][]byte
	for i := 0; i < pool.Workers(); i++ {
		want = append(want, dumpOrFatal(t, pool.Shards[i].Srv.Cache()))
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	pool2, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("reopen pool: %v", err)
	}
	defer func() {
		if err := pool2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	for i := 0; i < pool2.Workers(); i++ {
		requireSameState(t, want[i], dumpOrFatal(t, pool2.Shards[i].Srv.Cache()))
	}
	for i := 0; i < 50; i++ {
		resp := pool2.HandleContext(context.Background(), i, workload.Request{Op: workload.OpGet, Key: workload.Key(i)})
		if !resp.OK || string(resp.Value) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("recovered get %d: %+v", i, resp)
		}
	}
}

// referenceEncodeSet, referenceEncodeDelete, referenceEncodeBatch and
// referenceAppendFrame are the record, batch and frame encoders as they
// were written before the server staged records in a reused arena and
// the store framed them in a reused buffer, kept verbatim: the
// reference the log's bytes are compared against.
func referenceEncodeSet(key string, flags uint32, expireAt time.Duration, val []byte) []byte {
	out := make([]byte, 0, 1+4+len(key)+4+8+len(val))
	out = append(out, recSet)
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(key)))
	out = append(out, b8[:4]...)
	out = append(out, key...)
	binary.LittleEndian.PutUint32(b8[:4], flags)
	out = append(out, b8[:4]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(expireAt))
	out = append(out, b8[:]...)
	return append(out, val...)
}

func referenceEncodeDelete(key string) []byte {
	out := make([]byte, 0, 1+len(key))
	out = append(out, recDelete)
	return append(out, key...)
}

func referenceEncodeBatch(records [][]byte) []byte {
	size := 4
	for _, r := range records {
		size += 4 + len(r)
	}
	out := make([]byte, 0, size)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(records)))
	out = append(out, n[:]...)
	for _, r := range records {
		binary.LittleEndian.PutUint32(n[:], uint32(len(r)))
		out = append(out, n[:]...)
		out = append(out, r...)
	}
	return out
}

func referenceAppendFrame(dst, payload []byte) []byte {
	var hdr [persist.FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// TestWALMatchesReferenceEncoding: the log a server writes holds
// exactly the bytes the reference encoders give for what it
// acknowledged — SETs (with flags and an expiry) and DELETEs that found
// their key, batched and serial — through a staging arena that is
// reused, grown past maxKeptRaw by a batch over 64 KiB and dropped.
func TestWALMatchesReferenceEncoding(t *testing.T) {
	dir := t.TempDir()
	srv := newDurableServer(t, dir, 0, nil)
	del := func(key string) workload.Request { return workload.Request{Op: workload.OpDelete, Key: key} }
	big := bytes.Repeat([]byte{'v'}, 40<<10)
	var want []byte
	for _, c := range []struct {
		name    string
		reqs    []workload.Request
		dropped bool // the staging arena must be gone afterwards
	}{
		{"sets and deletes", []workload.Request{
			{Op: workload.OpSet, Key: "a", Value: []byte("alpha"), Flags: 7, TTL: time.Hour},
			setReq("b", "beta"),
			del("missing"),
			{Op: workload.OpGet, Key: "b"},
		}, false},
		{"serial", []workload.Request{setReq("c", "gamma")}, false},
		{"over 64 KiB", []workload.Request{
			{Op: workload.OpSet, Key: "d", Value: big},
			{Op: workload.OpSet, Key: "e", Value: big},
		}, true},
		{"after the drop", []workload.Request{setReq("f", ""), del("a"), del("b")}, false},
	} {
		batch := make([]BatchRequest, len(c.reqs))
		for i, req := range c.reqs {
			batch[i] = BatchRequest{ClientID: i, Req: req}
		}
		var records [][]byte
		for i, resp := range srv.HandleBatch(batch) {
			req := c.reqs[i]
			if resp.Err != nil {
				t.Fatalf("%s: request %d: %v", c.name, i, resp.Err)
			}
			switch {
			case req.Op == workload.OpSet:
				expireAt := srv.cache.item[req.Key].Value.(*entry).expireAt
				records = append(records, referenceEncodeSet(req.Key, req.Flags, expireAt, req.Value))
			case req.Op == workload.OpDelete && resp.OK:
				records = append(records, referenceEncodeDelete(req.Key))
			}
		}
		want = referenceAppendFrame(want, referenceEncodeBatch(records))
		if cap(srv.walBuf) > maxKeptRaw || (srv.walBuf == nil) != c.dropped {
			t.Errorf("%s: staging arena has capacity %d (nil: %v), want it dropped: %v",
				c.name, cap(srv.walBuf), srv.walBuf == nil, c.dropped)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log is %d bytes that differ from the reference encoding's %d", len(got), len(want))
	}
}

// TestDurableCommitAllocations: committing a batch costs no host
// allocations of its own. A 32-SET HandleBatch with a FileStore
// attached — staging, group commit, framing and the write — allocates
// no more than the same batch on a memory-only server.
func TestDurableCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	batch := make([]BatchRequest, 32)
	for i := range batch {
		batch[i] = BatchRequest{ClientID: i, Req: setReq(fmt.Sprintf("key-%02d", i), strings.Repeat("v", 100))}
	}
	allocs := func(persistDir string) float64 {
		sys := core.NewSystem(core.DefaultConfig())
		cache, err := NewCache(sys, 1, 8<<20)
		if err != nil {
			t.Fatalf("NewCache: %v", err)
		}
		cfg := ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}
		if persistDir != "" {
			cfg.Persist = &PersistConfig{Dir: persistDir}
		}
		srv, err := NewServer(sys, cache, cfg)
		if err != nil {
			t.Fatalf("NewServer: %v", err)
		}
		defer func() {
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		serve := func() {
			for i, resp := range srv.HandleBatch(batch) {
				if !resp.OK || resp.Err != nil {
					t.Fatalf("request %d: %+v", i, resp)
				}
			}
		}
		serve() // warm the shard scratch, the store's buffers and the cache's chunks
		return testing.AllocsPerRun(50, serve)
	}
	memory, durable := allocs(""), allocs(t.TempDir())
	if durable > memory {
		t.Errorf("a durable 32-SET batch allocates %v times, a memory-only one %v", durable, memory)
	}
}
