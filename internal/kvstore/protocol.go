package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// This file implements the subset of the memcached text protocol the
// TCP demo binary (cmd/sdrad-kvd) speaks:
//
//	get <key>\r\n
//	set <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//	delete <key>\r\n
//	stats\r\n
//	quit\r\n
//
// plus two gateway extensions:
//
//	auth <token>\r\n    (bind the connection to a tenant)
//	health\r\n          (shard + tenant state as STAT lines)
//
// and the paginated scan extension:
//
//	scan <prefix> <limit> [cursor]\r\n
//
// where prefix "*" means every key, limit is clamped to MaxScanPage,
// and a non-empty cursor resumes strictly after that key. A scan page
// answers with VALUE lines, then "SCAN_MORE <cursor>\r\n" when more
// remain, then END. Every page is admitted through the tenant's
// gateway quota like any other request.
//
// Responses follow the memcached wire format (VALUE/END, STORED,
// DELETED, NOT_FOUND, ERROR, SERVER_ERROR <msg>).

// ErrProtocol is returned for malformed protocol input.
var ErrProtocol = errors.New("kvstore: protocol error")

// Command is a parsed protocol command.
type Command struct {
	// Req is the key-value operation for get/set/delete commands.
	Req workload.Request
	// Stats and Quit flag the non-data commands.
	Stats bool
	Quit  bool
	// Auth flags the gateway extension "auth <token>"; Token carries the
	// presented credential.
	Auth  bool
	Token string
	// Health flags the gateway extension "health" (shard + tenant
	// state).
	Health bool
	// Scan flags the paginated scan extension; ScanPrefix, ScanCursor,
	// and ScanLimit carry its arguments (empty prefix = every key).
	Scan       bool
	ScanPrefix string
	ScanCursor string
	ScanLimit  int
}

// MaxCommandLine bounds a command line, terminator included (memcached's
// own limit): the line is read on the trusted side, so a client that
// never sends a newline must not grow host memory.
const MaxCommandLine = 2048

// readLine reads one newline-terminated line of at most MaxCommandLine
// bytes, whatever r's buffer size.
func readLine(r *bufio.Reader) (string, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(line)+len(chunk) > MaxCommandLine {
			return "", fmt.Errorf("%w: command line over %d bytes", ErrProtocol, MaxCommandLine)
		}
		if err == nil && line == nil {
			return string(chunk), nil // the common case: one buffer, one allocation
		}
		line = append(line, chunk...)
		if !errors.Is(err, bufio.ErrBufferFull) {
			return string(line), err
		}
	}
}

// maxFields is the most fields a command can use (set's five); a line
// with more is rejected by every arity check whatever their number.
const maxFields = 5

// splitFields is strings.Fields without the heap slice: it splits line
// around runs of white space into dst and returns the filled prefix,
// stopping after maxFields+1 fields. A line holding a byte >= 0x80 may
// contain Unicode white space and takes strings.Fields itself, so the
// split — and with it every accept/reject decision — is the same.
func splitFields(line string, dst *[maxFields + 1]string) []string {
	n, start := 0, -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= 0x80:
			return strings.Fields(line)
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r': // strings.Fields' ASCII spaces
			if start >= 0 {
				dst[n] = line[start:i]
				n, start = n+1, -1
				if n == len(dst) {
					return dst[:n]
				}
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst[n] = line[start:]
		n++
	}
	return dst[:n]
}

// ReadCommand reads and parses one command from r.
func ReadCommand(r *bufio.Reader) (Command, error) {
	line, err := readLine(r)
	if err != nil {
		return Command{}, err
	}
	var split [maxFields + 1]string
	fields := splitFields(strings.TrimRight(line, "\r\n"), &split)
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("%w: empty command", ErrProtocol)
	}
	switch fields[0] {
	case "get", "gets":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: get wants 1 key", ErrProtocol)
		}
		return Command{Req: workload.Request{Op: workload.OpGet, Key: fields[1]}}, nil
	case "delete":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: delete wants 1 key", ErrProtocol)
		}
		return Command{Req: workload.Request{Op: workload.OpDelete, Key: fields[1]}}, nil
	case "set":
		if len(fields) != 5 {
			return Command{}, fmt.Errorf("%w: set wants key flags exptime bytes", ErrProtocol)
		}
		flags, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return Command{}, fmt.Errorf("%w: bad flags %q", ErrProtocol, fields[2])
		}
		exp, err := strconv.Atoi(fields[3])
		if err != nil || exp < 0 {
			return Command{}, fmt.Errorf("%w: bad exptime %q", ErrProtocol, fields[3])
		}
		n, err := strconv.Atoi(fields[4])
		if err != nil || n < 0 || n > MaxValueSize {
			return Command{}, fmt.Errorf("%w: bad byte count %q", ErrProtocol, fields[4])
		}
		data := make([]byte, n+2)
		if _, err := io.ReadFull(r, data); err != nil {
			return Command{}, fmt.Errorf("%w: short data block: %v", ErrProtocol, err)
		}
		if data[n] != '\r' || data[n+1] != '\n' {
			return Command{}, fmt.Errorf("%w: data block not CRLF terminated", ErrProtocol)
		}
		return Command{Req: workload.Request{
			Op:    workload.OpSet,
			Key:   fields[1],
			Value: data[:n],
			TTL:   time.Duration(exp) * time.Second,
			Flags: uint32(flags),
		}}, nil
	case "stats":
		return Command{Stats: true}, nil
	case "auth":
		if len(fields) != 2 {
			return Command{}, fmt.Errorf("%w: auth wants 1 token", ErrProtocol)
		}
		return Command{Auth: true, Token: fields[1]}, nil
	case "health":
		return Command{Health: true}, nil
	case "scan":
		if len(fields) != 3 && len(fields) != 4 {
			return Command{}, fmt.Errorf("%w: scan wants prefix limit [cursor]", ErrProtocol)
		}
		limit, err := strconv.Atoi(fields[2])
		if err != nil || limit <= 0 {
			return Command{}, fmt.Errorf("%w: bad scan limit %q", ErrProtocol, fields[2])
		}
		if limit > MaxScanPage {
			limit = MaxScanPage
		}
		prefix := fields[1]
		if prefix == "*" {
			prefix = ""
		}
		cmd := Command{Scan: true, ScanPrefix: prefix, ScanLimit: limit}
		if len(fields) == 4 {
			cmd.ScanCursor = fields[3]
		}
		return cmd, nil
	case "quit":
		return Command{Quit: true}, nil
	default:
		return Command{}, fmt.Errorf("%w: unknown command %q", ErrProtocol, fields[0])
	}
}

// writeValueLine renders "VALUE <key> <flags> <bytes>\r\n". Into a
// *bufio.Writer — what every connection loop hands in — it appends to
// the writer's own spare buffer, so a GET hit renders without garbage.
func writeValueLine(w io.Writer, key string, flags uint32, size int) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		_, err := fmt.Fprintf(w, "VALUE %s %d %d\r\n", key, flags, size)
		return err
	}
	b := append(bw.AvailableBuffer(), "VALUE "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, uint64(flags), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(size), 10)
	b = append(b, "\r\n"...)
	_, err := bw.Write(b)
	return err
}

// WriteResponse renders resp for req in the memcached wire format.
func WriteResponse(w io.Writer, req workload.Request, resp Response) error {
	switch {
	case resp.Err != nil:
		_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", resp.Err)
		return err
	case req.Op == workload.OpGet && resp.OK:
		if err := writeValueLine(w, req.Key, resp.Flags, len(resp.Value)); err != nil {
			return err
		}
		if _, err := w.Write(resp.Value); err != nil {
			return err
		}
		_, err := io.WriteString(w, "\r\nEND\r\n")
		return err
	case req.Op == workload.OpGet:
		_, err := io.WriteString(w, "END\r\n")
		return err
	case req.Op == workload.OpSet:
		_, err := io.WriteString(w, "STORED\r\n")
		return err
	case req.Op == workload.OpDelete && resp.OK:
		_, err := io.WriteString(w, "DELETED\r\n")
		return err
	case req.Op == workload.OpDelete:
		_, err := io.WriteString(w, "NOT_FOUND\r\n")
		return err
	default:
		_, err := io.WriteString(w, "ERROR\r\n")
		return err
	}
}

// WriteScanResponse renders one scan page: a VALUE line (with data
// block) per item in key order, then "SCAN_MORE <cursor>" when the
// table has more matching keys, then END.
func WriteScanResponse(w io.Writer, res ScanResult) error {
	for _, it := range res.Items {
		if err := writeValueLine(w, it.Key, it.Flags, len(it.Value)); err != nil {
			return err
		}
		if _, err := w.Write(it.Value); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\r\n"); err != nil {
			return err
		}
	}
	if res.Cursor != "" {
		if _, err := fmt.Fprintf(w, "SCAN_MORE %s\r\n", res.Cursor); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

// StatsSource is the accounting surface the stats command renders; both
// Server and Pool implement it (the pool's counters are aggregates over
// its shards).
type StatsSource interface {
	Stats() ServerStats
	CacheStats() CacheStats
	CacheBytes() uint64
	CacheItems() int
}

// WriteStats renders the stats command output.
func WriteStats(w io.Writer, s StatsSource) error {
	st := s.Stats()
	cs := s.CacheStats()
	rows := []struct {
		k string
		v uint64
	}{
		{"cmd_total", st.Requests},
		{"contained_violations", st.Violations},
		{"crashes", st.Crashes},
		{"dropped", st.Dropped},
		{"get_hits", cs.Hits},
		{"get_misses", cs.Misses},
		{"evictions", cs.Evictions},
		{"expired", cs.Expired},
		{"bytes", s.CacheBytes()},
		{"curr_items", uint64(s.CacheItems())},
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "STAT %s %d\r\n", r.k, r.v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}
