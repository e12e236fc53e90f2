package serve

import (
	"bufio"
	"io"
)

// Buffer returns the buffered pair a protocol loop runs a connection
// on. Replies written to w leave when the loop is about to read the
// socket again — every Read of the conn flushes w first, and a read is
// the only point where the loop can block — when w fills, or when the
// loop flushes w itself on its way out. A client that pipelines a window
// of requests in one segment is answered with one write, not one per
// reply; a client that waits for each reply sees one read and one write
// per request.
// The trigger is "about to read", not "r has nothing buffered": a
// half-received command (a set header whose data block is still in
// flight) reads the socket too, and earlier replies leave before it
// does. DESIGN.md §13 has the argument.
func Buffer(conn io.ReadWriter) (r *bufio.Reader, w *bufio.Writer) {
	w = bufio.NewWriter(conn)
	return bufio.NewReader(&flushingReader{conn: conn, w: w}), w
}

// flushingReader flushes w before every read of conn.
type flushingReader struct {
	conn io.Reader
	w    *bufio.Writer
}

// Read writes out any buffered replies, then reads. A failed flush ends
// the read: the peer is gone, and w keeps the error for its owner.
func (f *flushingReader) Read(p []byte) (int, error) {
	if err := f.w.Flush(); err != nil {
		return 0, err
	}
	return f.conn.Read(p)
}
