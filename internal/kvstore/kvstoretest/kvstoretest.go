// Package kvstoretest is the conformance battery for connection loops
// built on kvstore.ServeCommands (sdrad-kvd's and sdrad-cluster's): it
// checks when replies reach the connection and when requests execute —
// the settle rule, DESIGN.md §13 — over a scripted connection that
// needs no socket. Run it from the loop's own tests with a factory that
// builds a loop over a fresh, empty store.
//
//lint:allow unusedexport a test battery: only the connection loops' tests import it
package kvstoretest

import (
	"bytes"
	"fmt"
	"io"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/submit"
)

// Loop is a connection loop under test over a fresh, empty store.
type Loop struct {
	// Serve runs the loop on one connection.
	Serve func(conn io.ReadWriter)
	// Queues is the loop's submission layer, nil on a serial frontend.
	Queues *submit.Queues
}

// Conn is a scripted connection: each Read delivers the next segment
// (what one read(2) would return), then io.EOF; every Write is counted
// and kept. BeforeRead records how many bytes had been written when
// each Read was entered, so a test can tell which replies had left
// before the loop went back to the socket.
type Conn struct {
	segments   []string
	Out        bytes.Buffer
	Writes     int
	BeforeRead []int
}

// NewConn returns a connection that delivers segments, one per Read.
func NewConn(segments ...string) *Conn { return &Conn{segments: segments} }

// Read delivers the next segment, or as much of it as p holds.
func (c *Conn) Read(p []byte) (int, error) {
	c.BeforeRead = append(c.BeforeRead, c.Out.Len())
	if len(c.segments) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.segments[0])
	if c.segments[0] = c.segments[0][n:]; c.segments[0] == "" {
		c.segments = c.segments[1:]
	}
	return n, nil
}

// Write records one write to the connection.
func (c *Conn) Write(p []byte) (int, error) {
	c.Writes++
	return c.Out.Write(p)
}

// command is one protocol command and the reply the battery's script
// must draw for it from an empty store.
type command struct{ in, reply string }

// window returns 32 mixed set/get/delete commands over eight keys.
func window() []command {
	var cmds []command
	for i := 0; i < 8; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
		cmds = append(cmds,
			command{fmt.Sprintf("set %s %d 0 %d\r\n%s\r\n", k, i, len(v), v), "STORED\r\n"},
			command{fmt.Sprintf("get %s\r\n", k), fmt.Sprintf("VALUE %s %d %d\r\n%s\r\nEND\r\n", k, i, len(v), v)},
			command{fmt.Sprintf("delete %s\r\n", k), "DELETED\r\n"},
			command{fmt.Sprintf("get %s\r\n", k), "END\r\n"},
		)
	}
	return cmds
}

// join renders cmds as one segment and as the replies they draw.
func join(cmds []command) (in, replies string) {
	var i, r strings.Builder
	for _, c := range cmds {
		i.WriteString(c.in)
		r.WriteString(c.reply)
	}
	return i.String(), r.String()
}

// serveOn runs a fresh loop from newLoop on a scripted connection.
func serveOn(t *testing.T, newLoop func(t *testing.T) Loop, segments ...string) *Conn {
	conn := NewConn(segments...)
	newLoop(t).Serve(conn)
	return conn
}

// oneCommandPerRead returns cmds as segments, one command each: the
// session of a client that waits for each reply.
func oneCommandPerRead(cmds []command) []string {
	segments := make([]string, len(cmds))
	for i, c := range cmds {
		segments[i] = c.in
	}
	return segments
}

// FlushRule runs the battery of when replies reach the connection.
// newLoop is called once per scripted connection.
func FlushRule(t *testing.T, newLoop func(t *testing.T) Loop) {
	t.Helper()
	serve := func(t *testing.T, segments ...string) *Conn { return serveOn(t, newLoop, segments...) }
	check := func(t *testing.T, conn *Conn, want string, writes int) {
		t.Helper()
		if got := conn.Out.String(); got != want {
			t.Errorf("replies:\n%q\nwant:\n%q", got, want)
		}
		if conn.Writes != writes {
			t.Errorf("%d writes to the connection, want %d", conn.Writes, writes)
		}
	}

	t.Run("one write per drained window", func(t *testing.T) {
		cmds := window()
		in, want := join(cmds)
		conn := serve(t, in)
		check(t, conn, want, 1)
		// Nothing was written before the loop came back for more input.
		if len(conn.BeforeRead) != 2 || conn.BeforeRead[1] != len(want) {
			t.Errorf("bytes written at each read = %v, want [0 %d]", conn.BeforeRead, len(want))
		}

		// The same commands one per read — a client that waits for each
		// reply — draw the same bytes with one write per request.
		check(t, serve(t, oneCommandPerRead(cmds)...), want, len(cmds))
	})

	t.Run("a half-received command strands no reply", func(t *testing.T) {
		done, doneReplies := join(window()[:3])
		conn := serve(t, done+"set late 0 0 5\r\n", "hello\r\nget late\r\n")
		check(t, conn, doneReplies+"STORED\r\nVALUE late 0 5\r\nhello\r\nEND\r\n", 2)
		// The loop goes back to the socket for the data block, and the
		// three finished replies leave before it does.
		if len(conn.BeforeRead) != 3 || conn.BeforeRead[1] != len(doneReplies) {
			t.Errorf("bytes written at each read = %v, want %d at the second", conn.BeforeRead, len(doneReplies))
		}
	})

	t.Run("the end of the loop flushes", func(t *testing.T) {
		done, doneReplies := join(window()[:3])
		for _, c := range []struct{ name, tail, reply string }{
			{"quit", "quit\r\nget key-0\r\n", ""},
			{"EOF", "", ""},
			{"malformed header", "set key-9 0 0 nope\r\nget key-0\r\n", "CLIENT_ERROR kvstore: protocol error: bad byte count \"nope\"\r\n"},
		} {
			t.Run(c.name, func(t *testing.T) {
				check(t, serve(t, done+c.tail), doneReplies+c.reply, 1)
			})
		}
	})

	t.Run("replies larger than the write buffer", func(t *testing.T) {
		big := strings.Repeat("0123456789abcdef", 200) // 3 200 B: two replies overflow a 4 KiB buffer
		in := fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", len(big), big)
		want := "STORED\r\n"
		for i := 0; i < 6; i++ {
			in += "get big\r\nget none\r\n"
			want += fmt.Sprintf("VALUE big 0 %d\r\n%s\r\nEND\r\nEND\r\n", len(big), big)
		}
		conn := serve(t, in)
		if got := conn.Out.String(); got != want {
			t.Errorf("%d reply bytes, want %d, or out of order", len(got), len(want))
		}
		if conn.Writes < 2 {
			t.Errorf("%d writes for %d reply bytes: the buffer never filled", conn.Writes, len(want))
		}
	})
}

// SettleRule runs the battery of when pipelined requests execute.
// newLoop is called once per scripted connection.
func SettleRule(t *testing.T, newLoop func(t *testing.T) Loop) {
	t.Helper()
	t.Run("a window is submitted before the loop waits", func(t *testing.T) {
		// One P, as a saturated server runs: a drain loop then starts when
		// the connection waits, not while it is still parsing the window —
		// with spare Ps it may wake for the first request and again for
		// each few that follow, however slow the parse (a race build).
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		cmds := window()
		in, want := join(cmds)
		loop := newLoop(t)
		conn := NewConn(in)
		loop.Serve(conn)
		if got := conn.Out.String(); got != want {
			t.Errorf("replies:\n%q\nwant:\n%q", got, want)
		}
		if loop.Queues != nil {
			var submitted uint64
			for w := 0; w < loop.Queues.Workers(); w++ {
				st := loop.Queues.Stats(w)
				submitted += st.Submitted
				// A preempted parse may let the drain loop start early: one
				// batch before, one after.
				if st.Batches > 2 {
					t.Errorf("shard %d ran the window in %d batches, want at most 2", w, st.Batches)
				}
			}
			if submitted != uint64(len(cmds)) {
				t.Errorf("%d requests submitted, want %d", submitted, len(cmds))
			}
		}
		if got := serveOn(t, newLoop, oneCommandPerRead(cmds)...).Out.String(); got != want {
			t.Errorf("one command per read:\n%q\nwant:\n%q", got, want)
		}
	})

	t.Run("a key's requests keep their order", func(t *testing.T) {
		conn := serveOn(t, newLoop, "set k 0 0 1\r\na\r\nget k\r\nset k 0 0 1\r\nb\r\nget k\r\ndelete k\r\nget k\r\n")
		want := "STORED\r\nVALUE k 0 1\r\na\r\nEND\r\nSTORED\r\nVALUE k 0 1\r\nb\r\nEND\r\nDELETED\r\nEND\r\n"
		if got := conn.Out.String(); got != want {
			t.Errorf("replies:\n%q\nwant:\n%q", got, want)
		}
	})

	t.Run("stats waits for every earlier command", func(t *testing.T) {
		cmds := window()
		before, after := cmds[:20], cmds[20:]
		in, _ := join(before)
		rest, _ := join(after)
		conn := serveOn(t, newLoop, in+"stats\r\n"+rest)
		m := cmdTotal.FindStringSubmatch(conn.Out.String())
		if m == nil {
			t.Fatalf("no cmd_total in the replies:\n%s", conn.Out.String())
		}
		var total int
		if _, err := fmt.Sscan(m[1], &total); err != nil || total < len(before) {
			t.Errorf("stats after %d commands counts cmd_total %s", len(before), m[1])
		}
		serial := oneCommandPerRead(before)
		serial = append(serial, "stats\r\n")
		serial = append(serial, oneCommandPerRead(after)...)
		if got, want := conn.Out.String(), serveOn(t, newLoop, serial...).Out.String(); got != want {
			t.Errorf("one segment:\n%q\none command per read:\n%q", got, want)
		}
	})
}

// cmdTotal finds the stats command's request count.
var cmdTotal = regexp.MustCompile(`STAT cmd_total (\d+)\r\n`)
