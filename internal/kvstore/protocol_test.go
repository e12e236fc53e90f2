package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadCommandGet(t *testing.T) {
	cmd, err := ReadCommand(reader("get foo\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Req.Op != workload.OpGet || cmd.Req.Key != "foo" {
		t.Errorf("cmd = %+v", cmd)
	}
	// gets is an accepted alias.
	cmd, err = ReadCommand(reader("gets bar\r\n"))
	if err != nil || cmd.Req.Key != "bar" {
		t.Errorf("gets: %+v, %v", cmd, err)
	}
}

func TestReadCommandSet(t *testing.T) {
	cmd, err := ReadCommand(reader("set k 0 0 5\r\nhello\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Req.Op != workload.OpSet || cmd.Req.Key != "k" || string(cmd.Req.Value) != "hello" {
		t.Errorf("cmd = %+v", cmd)
	}
}

func TestReadCommandSetEmptyValue(t *testing.T) {
	cmd, err := ReadCommand(reader("set k 0 0 0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmd.Req.Value) != 0 {
		t.Errorf("value = %q", cmd.Req.Value)
	}
}

func TestReadCommandDeleteStatsQuit(t *testing.T) {
	cmd, err := ReadCommand(reader("delete k\r\n"))
	if err != nil || cmd.Req.Op != workload.OpDelete {
		t.Errorf("delete: %+v, %v", cmd, err)
	}
	cmd, err = ReadCommand(reader("stats\r\n"))
	if err != nil || !cmd.Stats {
		t.Errorf("stats: %+v, %v", cmd, err)
	}
	cmd, err = ReadCommand(reader("quit\r\n"))
	if err != nil || !cmd.Quit {
		t.Errorf("quit: %+v, %v", cmd, err)
	}
}

func TestReadCommandMalformed(t *testing.T) {
	cases := []string{
		"\r\n",                      // empty
		"get\r\n",                   // missing key
		"get a b\r\n",               // too many keys
		"delete\r\n",                // missing key
		"set k 0 0\r\n",             // missing byte count
		"set k 0 0 abc\r\n",         // non-numeric count
		"set k 0 0 -1\r\n",          // negative count
		"set k 0 0 99999999\r\n",    // over limit
		"set k 0 0 5\r\nhelloXX",    // bad terminator
		"frobnicate\r\n",            // unknown command
		"set k 0 0 10\r\nshort\r\n", // short data
	}
	for _, in := range cases {
		if _, err := ReadCommand(reader(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	// Protocol errors carry the sentinel.
	if _, err := ReadCommand(reader("bogus\r\n")); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

func TestReadCommandEOF(t *testing.T) {
	if _, err := ReadCommand(reader("")); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriteResponseForms(t *testing.T) {
	cases := []struct {
		name string
		req  workload.Request
		resp Response
		want string
	}{
		{"get hit", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{OK: true, Value: []byte("vv")}, "VALUE k 0 2\r\nvv\r\nEND\r\n"},
		{"get hit with flags", workload.Request{Op: workload.OpGet, Key: "key-000017"},
			Response{OK: true, Flags: 4294967295, Value: []byte("0123456789ab")}, "VALUE key-000017 4294967295 12\r\n0123456789ab\r\nEND\r\n"},
		{"get miss", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{}, "END\r\n"},
		{"set", workload.Request{Op: workload.OpSet, Key: "k"},
			Response{OK: true}, "STORED\r\n"},
		{"delete hit", workload.Request{Op: workload.OpDelete, Key: "k"},
			Response{OK: true}, "DELETED\r\n"},
		{"delete miss", workload.Request{Op: workload.OpDelete, Key: "k"},
			Response{}, "NOT_FOUND\r\n"},
		{"error", workload.Request{Op: workload.OpGet, Key: "k"},
			Response{Err: errors.New("boom")}, "SERVER_ERROR boom\r\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, c.req, c.resp); err != nil {
				t.Fatal(err)
			}
			if buf.String() != c.want {
				t.Errorf("got %q, want %q", buf.String(), c.want)
			}
			// A *bufio.Writer takes the strconv path for the VALUE line; the
			// bytes must not depend on it, nor on the line fitting the
			// writer's spare buffer.
			for _, size := range []int{16, 4096} {
				var out bytes.Buffer
				bw := bufio.NewWriterSize(&out, size)
				if err := WriteResponse(bw, c.req, c.resp); err != nil {
					t.Fatal(err)
				}
				if err := bw.Flush(); err != nil {
					t.Fatal(err)
				}
				if out.String() != c.want {
					t.Errorf("through a %d-byte bufio.Writer: got %q, want %q", size, out.String(), c.want)
				}
			}
		})
	}
}

// TestCodecAllocatesOnlyTheLine pins the codec's garbage on the hot
// path: a GET parsed and its hit rendered cost the line's string and
// nothing else.
func TestCodecAllocatesOnlyTheLine(t *testing.T) {
	const n = 100
	r := reader(strings.Repeat("get key-000017\r\n", n+1))
	w := bufio.NewWriter(io.Discard)
	hit := Response{OK: true, Flags: 7, Value: bytes.Repeat([]byte("v"), 128)}
	allocs := testing.AllocsPerRun(n, func() {
		cmd, err := ReadCommand(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteResponse(w, cmd.Req, hit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("GET hit: %v allocations per command, want 1", allocs)
	}
}

func TestWriteStats(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, _ := NewCache(sys, 1, 1<<20)
	srv, _ := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD})
	_ = srv.Handle(0, workload.Request{Op: workload.OpSet, Key: "a", Value: []byte("b")})
	var buf bytes.Buffer
	if err := WriteStats(&buf, srv); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"STAT cmd_total 1", "STAT curr_items 1", "END\r\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
}

// Round trip: encode a response, parse it the way a client would.
func TestProtocolRoundTripThroughServer(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, _ := NewCache(sys, 1, 1<<20)
	srv, _ := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD})

	script := "set greeting 0 0 5\r\nhello\r\nget greeting\r\ndelete greeting\r\nget greeting\r\n"
	r := bufio.NewReader(strings.NewReader(script))
	var out bytes.Buffer
	for i := 0; i < 4; i++ {
		cmd, err := ReadCommand(r)
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.Handle(1, cmd.Req)
		if err := WriteResponse(&out, cmd.Req, resp); err != nil {
			t.Fatal(err)
		}
	}
	want := "STORED\r\nVALUE greeting 0 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n"
	if out.String() != want {
		t.Errorf("transcript:\n%q\nwant:\n%q", out.String(), want)
	}
}

// endlessA is a client that never sends a newline; n counts the bytes
// the parser pulled from it.
type endlessA struct{ n int }

func (e *endlessA) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += len(p)
	return len(p), nil
}

// TestReadCommandBoundsLine: a newline-less command line is rejected
// with the typed protocol error within MaxCommandLine plus one bufio
// buffer, whatever the reader's buffer size — the trusted side never
// buffers an unbounded line.
func TestReadCommandBoundsLine(t *testing.T) {
	for _, size := range []int{16, 512, 4096, 64 << 10} {
		src := &endlessA{}
		_, err := ReadCommand(bufio.NewReaderSize(src, size))
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("buffer %d: err = %v, want ErrProtocol", size, err)
		}
		if src.n > MaxCommandLine+size {
			t.Errorf("buffer %d: parser read %d bytes, want at most %d", size, src.n, MaxCommandLine+size)
		}
	}
	// A line that spans several small buffers but fits the cap still parses.
	key := strings.Repeat("k", 300)
	cmd, err := ReadCommand(bufio.NewReaderSize(strings.NewReader("get "+key+"\r\n"), 16))
	if err != nil || cmd.Req.Key != key {
		t.Fatalf("multi-buffer line: key len %d, err %v", len(cmd.Req.Key), err)
	}
}
