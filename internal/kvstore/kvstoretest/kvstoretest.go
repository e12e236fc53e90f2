// Package kvstoretest is the conformance battery for connection loops
// built on kvstore.ServeCommands (sdrad-kvd's and sdrad-cluster's): it
// checks when replies reach the connection — the flush rule of
// serve.Buffer, DESIGN.md §13 — over a scripted connection that needs
// no socket. Run it from the loop's own tests with a factory that
// builds a loop over a fresh, empty store.
package kvstoretest

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

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

// FlushRule runs the battery. newLoop returns a connection loop over a
// fresh, empty store; it is called once per scripted connection.
func FlushRule(t *testing.T, newLoop func(t *testing.T) func(conn io.ReadWriter)) {
	t.Helper()
	serve := func(t *testing.T, segments ...string) *Conn {
		conn := NewConn(segments...)
		newLoop(t)(conn)
		return conn
	}
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
		var serial []string
		for _, c := range cmds {
			serial = append(serial, c.in)
		}
		check(t, serve(t, serial...), want, len(cmds))
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
