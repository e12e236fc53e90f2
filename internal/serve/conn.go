package serve

import (
	"bufio"
	"io"
)

// Buffer returns the buffered pair a protocol loop runs a connection
// on. Before every Read of the conn — a read is the only point where
// the loop can block — settle runs and then w is flushed: settle is
// where the loop waits for the requests it submitted without waiting
// and writes their replies to w, so everything the client sent before
// is answered before the loop waits for more. Replies written to w
// otherwise leave when w fills, or when the loop settles and flushes on
// its way out. A client that pipelines a window of requests in one
// segment is answered with one write, not one per reply; a client that
// waits for each reply sees one read and one write per request.
// The trigger is "about to read", not "r has nothing buffered": a
// half-received command (a set header whose data block is still in
// flight) reads the socket too, and earlier replies leave before it
// does. DESIGN.md §13 has the argument.
func Buffer(conn io.ReadWriter, settle func() error) (r *bufio.Reader, w *bufio.Writer) {
	w = bufio.NewWriter(conn)
	return bufio.NewReader(&settlingReader{conn: conn, settle: settle, w: w}), w
}

// settlingReader settles and flushes w before every read of conn.
type settlingReader struct {
	conn   io.Reader
	settle func() error
	w      *bufio.Writer
}

// Read settles the pending replies, writes out what is buffered, then
// reads. A failed settle or flush ends the read: the loop is stopping
// (or the peer is gone), and the error stays with its owner — settle's
// with the loop, a write error with w.
func (s *settlingReader) Read(p []byte) (int, error) {
	if err := s.settle(); err != nil {
		return 0, err
	}
	if err := s.w.Flush(); err != nil {
		return 0, err
	}
	return s.conn.Read(p)
}
