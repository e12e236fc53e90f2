package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// replyKind classifies one parsed server reply.
type replyKind uint8

const (
	replyValue  replyKind = iota + 1 // VALUE ... END (GET hit)
	replyMiss                        // END (GET miss)
	replyStored                      // STORED
	replyError                       // SERVER_ERROR / CLIENT_ERROR / ERROR
)

// errMalformedReply marks server bytes that do not parse as a reply.
var errMalformedReply = errors.New("malformed reply")

// kvReply is one parsed memcached-text reply. key and value alias the
// reader's buffers and are valid until the next read.
type kvReply struct {
	kind  replyKind
	key   []byte
	value []byte
	line  []byte
}

// kvReader parses memcached-text replies off a connection, reusing one
// value buffer so the measured loop does not allocate per reply.
type kvReader struct {
	r   *bufio.Reader
	key []byte
	val []byte
}

func newKVReader(r io.Reader) *kvReader {
	return &kvReader{r: bufio.NewReaderSize(r, 64<<10)}
}

func (k *kvReader) line() ([]byte, error) {
	line, err := k.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// read parses the reply to one get or set.
func (k *kvReader) read() (kvReply, error) {
	line, err := k.line()
	if err != nil {
		return kvReply{}, err
	}
	switch {
	case bytes.Equal(line, []byte("END")):
		return kvReply{kind: replyMiss}, nil
	case bytes.Equal(line, []byte("STORED")):
		return kvReply{kind: replyStored}, nil
	case bytes.HasPrefix(line, []byte("VALUE ")):
		fields := bytes.Fields(line)
		if len(fields) != 4 {
			return kvReply{}, fmt.Errorf("%w: %q", errMalformedReply, line)
		}
		n, err := strconv.Atoi(string(fields[3]))
		if err != nil || n < 0 {
			return kvReply{}, fmt.Errorf("%w: %q", errMalformedReply, line)
		}
		k.key = append(k.key[:0], fields[1]...)
		if cap(k.val) < n+2 {
			k.val = make([]byte, n+2)
		}
		k.val = k.val[:n+2]
		if _, err := io.ReadFull(k.r, k.val); err != nil {
			return kvReply{}, err
		}
		end, err := k.line()
		if err != nil {
			return kvReply{}, err
		}
		if !bytes.Equal(end, []byte("END")) || k.val[n] != '\r' || k.val[n+1] != '\n' {
			return kvReply{}, fmt.Errorf("%w: VALUE block not terminated", errMalformedReply)
		}
		return kvReply{kind: replyValue, key: k.key, value: k.val[:n]}, nil
	case bytes.HasPrefix(line, []byte("SERVER_ERROR")), bytes.HasPrefix(line, []byte("CLIENT_ERROR")), bytes.Equal(line, []byte("ERROR")):
		return kvReply{kind: replyError, line: line}, nil
	}
	return kvReply{}, fmt.Errorf("%w: %q", errMalformedReply, line)
}

// readStats parses a stats reply: STAT <name> <number> lines up to END.
// Rows whose value is not a number (the health command's) are skipped.
func (k *kvReader) readStats() (map[string]uint64, error) {
	out := make(map[string]uint64)
	for {
		line, err := k.line()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return out, nil
		}
		fields := bytes.Fields(line)
		if len(fields) < 3 || !bytes.Equal(fields[0], []byte("STAT")) {
			return nil, fmt.Errorf("%w: %q", errMalformedReply, line)
		}
		if v, err := strconv.ParseUint(string(fields[2]), 10, 64); err == nil {
			out[string(fields[1])] = v
		}
	}
}

// httpReply is the parsed head and body of one HTTP response.
type httpReply struct {
	status int
	body   []byte
}

// readHTTPReply parses one HTTP/1.1 response with a Content-Length.
func readHTTPReply(r *bufio.Reader) (httpReply, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return httpReply{}, err
	}
	fields := bytes.Fields(line)
	if len(fields) < 2 || !bytes.HasPrefix(fields[0], []byte("HTTP/1.")) {
		return httpReply{}, fmt.Errorf("%w: status line %q", errMalformedReply, line)
	}
	status, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return httpReply{}, fmt.Errorf("%w: status line %q", errMalformedReply, line)
	}
	length := -1
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return httpReply{}, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(name), []byte("content-length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(value))); err != nil || length < 0 {
				return httpReply{}, fmt.Errorf("%w: content-length %q", errMalformedReply, value)
			}
		}
	}
	if length < 0 {
		return httpReply{}, fmt.Errorf("%w: no content-length", errMalformedReply)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return httpReply{}, err
	}
	return httpReply{status: status, body: body}, nil
}

// model is one connection's view of the store: the value it last had
// acknowledged for each key it owns. Nobody else writes those keys, so
// a GET must return exactly that value.
type model map[string][]byte

// check verifies reply against the model for req and, when the reply
// acknowledges a SET, records the new value. An exploit SET must be
// answered SERVER_ERROR and leaves the previous value in place.
func (m model) check(req workload.Request, reply kvReply) bool {
	switch req.Op {
	case workload.OpGet:
		want, ok := m[req.Key]
		if !ok {
			return reply.kind == replyMiss
		}
		return reply.kind == replyValue && string(reply.key) == req.Key && bytes.Equal(reply.value, want)
	case workload.OpSet:
		if isAttack(req) {
			return reply.kind == replyError && bytes.HasPrefix(reply.line, []byte("SERVER_ERROR"))
		}
		if reply.kind != replyStored {
			return false
		}
		m[req.Key] = req.Value
		return true
	}
	return false
}

func isAttack(req workload.Request) bool {
	return req.Op == workload.OpSet && bytes.HasPrefix(req.Value, []byte(kvstore.AttackMarker))
}

// sliceLen is the length of the slices a measured window is cut into.
// Every wall-clock metric is computed per slice and the run reports the
// best slice: interference from outside the benchmark — this sandbox
// loses up to a third of its speed for seconds at a time to whatever
// else the host runs — only ever slows a slice down, so the quietest
// slice is the one that says most about the code.
const sliceLen = 250 * time.Millisecond

// recorder collects one connection's results over the measured window.
type recorder struct {
	start     time.Time // measured window start; earlier replies are warm-up
	slices    [][]uint32
	attempted int64
	failed    int64
	// verified counts correct replies for the sampler goroutine, which
	// reads it while the connection is still running.
	verified atomic.Int64
}

func newRecorder(start time.Time, window time.Duration) *recorder {
	r := &recorder{start: start, slices: make([][]uint32, window/sliceLen)}
	for i := range r.slices {
		r.slices[i] = make([]uint32, 0, 1<<14)
	}
	return r
}

// record notes one reply that arrived at now for a request sent at sent.
func (r *recorder) record(sent, now time.Time, ok bool) {
	if sent.Before(r.start) {
		return
	}
	r.attempted++
	if !ok {
		r.failed++
		return
	}
	r.verified.Add(1)
	// A reply that lands after the window's end belongs to no slice: its
	// latency would count, but its slice's rate would not be a rate.
	if i := int(now.Sub(r.start) / sliceLen); i < len(r.slices) {
		r.slices[i] = append(r.slices[i], uint32(min(now.Sub(sent), time.Duration(1<<32-1))))
	}
}

// kvConn is one closed-loop kv client connection.
type kvConn struct {
	c      net.Conn
	rd     *kvReader
	m      model
	stream *kvStream
	wbuf   []byte
}

func dialKV(addr string, stream *kvStream) (*kvConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, rd: newKVReader(c), m: make(model), stream: stream}, nil
}

// roundTrip sends reqs as one write and reads their replies in order,
// verifying each against the model; rec may be nil (preload).
func (k *kvConn) roundTrip(reqs []workload.Request, rec *recorder) error {
	k.wbuf = k.wbuf[:0]
	for _, req := range reqs {
		k.wbuf = append(k.wbuf, workload.RenderKVText(req)...)
	}
	sent := time.Now()
	if _, err := k.c.Write(k.wbuf); err != nil {
		return err
	}
	for _, req := range reqs {
		reply, err := k.rd.read()
		if err != nil {
			return err
		}
		ok := k.m.check(req, reply)
		if rec != nil {
			rec.record(sent, time.Now(), ok)
		} else if !ok {
			return fmt.Errorf("preload: wrong reply for %v %s", req.Op, req.Key)
		}
	}
	return nil
}

// preload stores this connection's keys, pipelined in chunks.
func (k *kvConn) preload(sp spec, seed uint64) error {
	const chunk = 128
	reqs := preloadRequests(sp, seed, k.stream.conn)
	for len(reqs) > 0 {
		n := min(chunk, len(reqs))
		if err := k.roundTrip(reqs[:n], nil); err != nil {
			return err
		}
		reqs = reqs[n:]
	}
	return nil
}

// run drives the closed loop until end: write a window, read its
// replies, repeat. A transport error fails the window's unanswered
// requests and ends the connection's run.
func (k *kvConn) run(end time.Time, rec *recorder) error {
	if err := k.c.SetDeadline(end.Add(10 * time.Second)); err != nil {
		return err
	}
	window := k.stream.sp.window
	reqs := make([]workload.Request, window)
	for time.Now().Before(end) {
		for i := range reqs {
			reqs[i] = k.stream.next()
		}
		before := rec.attempted
		sentInWindow := !time.Now().Before(rec.start)
		if err := k.roundTrip(reqs, rec); err != nil {
			if sentInWindow {
				unanswered := int64(window) - (rec.attempted - before)
				rec.attempted += unanswered
				rec.failed += unanswered
			}
			return err
		}
	}
	return nil
}

// stats asks the server for its counters.
func (k *kvConn) stats() (map[string]uint64, error) {
	if err := k.c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := io.WriteString(k.c, "stats\r\n"); err != nil {
		return nil, err
	}
	return k.rd.readStats()
}

// verifyAll re-reads every key in the model, counting mismatches: the
// kv-durable check that a restart kept every acknowledged write.
func (k *kvConn) verifyAll(keys []string) (attempted, failed int64, err error) {
	if err := k.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, 0, err
	}
	for _, key := range keys {
		req := workload.Request{Op: workload.OpGet, Key: key}
		if _, err := k.c.Write(workload.RenderKVText(req)); err != nil {
			return attempted, failed, err
		}
		reply, err := k.rd.read()
		if err != nil {
			return attempted, failed, err
		}
		attempted++
		if !k.m.check(req, reply) {
			failed++
		}
	}
	return attempted, failed, nil
}

// httpOnce performs one request on a fresh connection: dial, send, read
// the whole reply up to the server's close, verify status and body.
func httpOnce(addr string, req []byte) (bool, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return false, err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return false, err
	}
	if _, err := c.Write(req); err != nil {
		return false, err
	}
	r := bufio.NewReaderSize(c, 1024)
	reply, err := readHTTPReply(r)
	if err != nil {
		return false, err
	}
	// The server answers Connection: close; waiting for its FIN leaves
	// the TIME_WAIT state on its side, not on the generator's ephemeral
	// ports.
	if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
		return false, fmt.Errorf("%w: bytes after the body (%v)", errMalformedReply, err)
	}
	return reply.status == 200 && string(reply.body) == httpBody, nil
}

// runHTTP drives one closed-loop HTTP client until end.
func runHTTP(addr string, stream *httpStream, end time.Time, rec *recorder) error {
	for time.Now().Before(end) {
		req := stream.next()
		sent := time.Now()
		ok, err := httpOnce(addr, req)
		rec.record(sent, time.Now(), ok && err == nil)
		if err != nil {
			return err
		}
	}
	return nil
}
