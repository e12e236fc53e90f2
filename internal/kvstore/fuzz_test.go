package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/attackgen"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workload"
)

// FuzzReadCommand checks the protocol parser never panics, that every
// accepted command is structurally sound, and that ReadCommand agrees
// with the strings.Split/strings.Fields form it replaced
// (splitReadCommand): the same accept/reject verdict on every input,
// and for an accepted command the same op, key, flags, TTL, value and
// command flags.
func FuzzReadCommand(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"gets k\r\n",
		"set k 0 0 5\r\nhello\r\n",
		"set k 0 0 0\r\n\r\n",
		"delete k\r\n",
		"stats\r\n",
		"quit\r\n",
		"set k 0 0 1048577\r\n",
		"set k 0 0 -3\r\nxx\r\n",
		"\r\n",
		"get\r\n",
		"\x00\xff\r\n",
		strings.Repeat("a", 3*MaxCommandLine), // a line that never ends
		// Field splitting: Unicode spaces, every ASCII space, too many fields.
		"get\u00a0k\r\n",
		"get k\u2003x\r\n",
		"get\vk\f\r\n",
		" \t get \t k \r\n",
		"stats a b c d e f g\r\n",
		"set k 0 0 5 extra\u0085\r\nhello\r\n",
		"get k\xa0\r\n",
		"0 0 0 0 0 \xc6 0\r\n",
		// Appended after the seeds above so their names do not move.
		"set k 7 30 5\r\nhello\r\n",
		"set k 4294967296 0 1\r\nx\r\n",
		"set k 0 0 3\r\nabcd\r\n",
		"set k 0 0 3\r\nab",
		"scan * 5\r\n",
		"scan p 100000 k\r\n",
		"scan p 0\r\n",
		"auth tok\r\n",
		"health\r\n",
		"get k", // no newline
		strings.Repeat("k", MaxCommandLine-1) + "\n",
		strings.Repeat("k", MaxCommandLine) + "\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		// The allocation-free splitter must split as strings.Fields does,
		// up to the one field past the longest command that it keeps.
		line, _, _ := strings.Cut(in, "\n")
		line = strings.TrimRight(line, "\r\n")
		var split [maxFields + 1]string
		got, want := splitFields(line, &split), strings.Fields(line)
		if n := len(split); !slices.Equal(got[:min(len(got), n)], want[:min(len(want), n)]) {
			t.Errorf("splitFields(%q) = %q, want %q", line, got, want)
		}
		cmd, err := ReadCommand(bufio.NewReader(strings.NewReader(in)))
		ref, ok := splitReadCommand(in)
		if (err == nil) != ok {
			t.Fatalf("ReadCommand(%q) error %v, the Split form accepts: %v", in, err, ok)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(cmd.Req.Value, ref.Req.Value) {
			t.Errorf("ReadCommand(%q) value %q, the Split form says %q", in, cmd.Req.Value, ref.Req.Value)
		}
		cmd.Req.Value, ref.Req.Value = nil, nil
		if !reflect.DeepEqual(cmd, ref) {
			t.Errorf("ReadCommand(%q) = %+v, the Split form says %+v", in, cmd, ref)
		}
		if cmd.data() && cmd.Req.Key == "" {
			t.Errorf("accepted command with empty key: %q", in)
		}
		if len(cmd.Req.Value) > MaxValueSize {
			t.Errorf("accepted oversized value: %d", len(cmd.Req.Value))
		}
	})
}

// splitReadCommand is ReadCommand restated over the whole input with
// strings.SplitN and strings.Fields: the reference the buffered reader
// and the allocation-free splitter must agree with. The command
// line is everything before the first newline (at most MaxCommandLine
// bytes with it), and a set's data block is the n+2 bytes after it. It
// reports only whether the input is accepted, not why not.
func splitReadCommand(in string) (Command, bool) {
	parts := strings.SplitN(in, "\n", 2)
	if len(parts) != 2 || len(parts[0])+1 > MaxCommandLine {
		return Command{}, false
	}
	fields := strings.Fields(strings.TrimRight(parts[0], "\r"))
	if len(fields) == 0 {
		return Command{}, false
	}
	switch fields[0] {
	case "get", "gets":
		if len(fields) != 2 {
			return Command{}, false
		}
		return Command{Req: workload.Request{Op: workload.OpGet, Key: fields[1]}}, true
	case "delete":
		if len(fields) != 2 {
			return Command{}, false
		}
		return Command{Req: workload.Request{Op: workload.OpDelete, Key: fields[1]}}, true
	case "set":
		if len(fields) != 5 {
			return Command{}, false
		}
		flags, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return Command{}, false
		}
		exp, err := strconv.Atoi(fields[3])
		if err != nil || exp < 0 {
			return Command{}, false
		}
		n, err := strconv.Atoi(fields[4])
		if err != nil || n < 0 || n > MaxValueSize {
			return Command{}, false
		}
		data := parts[1]
		if len(data) < n+2 || data[n:n+2] != "\r\n" {
			return Command{}, false
		}
		return Command{Req: workload.Request{
			Op:    workload.OpSet,
			Key:   fields[1],
			Value: []byte(data[:n]),
			TTL:   time.Duration(exp) * time.Second,
			Flags: uint32(flags),
		}}, true
	case "stats":
		return Command{Stats: true}, true
	case "auth":
		if len(fields) != 2 {
			return Command{}, false
		}
		return Command{Auth: true, Token: fields[1]}, true
	case "health":
		return Command{Health: true}, true
	case "scan":
		if len(fields) != 3 && len(fields) != 4 {
			return Command{}, false
		}
		limit, err := strconv.Atoi(fields[2])
		if err != nil || limit <= 0 {
			return Command{}, false
		}
		cmd := Command{Scan: true, ScanPrefix: fields[1], ScanLimit: min(limit, MaxScanPage)}
		if cmd.ScanPrefix == "*" {
			cmd.ScanPrefix = ""
		}
		if len(fields) == 4 {
			cmd.ScanCursor = fields[3]
		}
		return cmd, true
	case "quit":
		return Command{Quit: true}, true
	}
	return Command{}, false
}

// FuzzHandleSDRaD drives arbitrary wire bytes through the full SDRaD
// request path — protocol parse, domain-isolated handling, attack
// injection on marked values — and asserts the supervisor's contract:
// a crafted request may be rejected or contained (a detection), but the
// supervisor must never panic and malicious requests must never reach
// the cache.
func FuzzHandleSDRaD(f *testing.F) {
	seeds := [][]byte{
		[]byte("get key-1\r\n"),
		[]byte("set key-1 0 0 5\r\nhello\r\n"),
		[]byte("set key-1 7 30 4\r\nwxyz\r\n"),
		[]byte("delete key-1\r\n"),
		[]byte("set x 0 0 9\r\n" + AttackMarker + "\r\n"),
		[]byte("set x 0 0 12\r\n" + AttackMarker + "pad\r\n"),
		[]byte("set k 0 0 1048577\r\n"),
		[]byte("\x00\xff\r\n"),
	}
	// Deterministic malformed corpus from the attack generator.
	seeds = append(seeds, attackgen.MalformedKVCorpus(1, 16)...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		cmd, err := ReadCommand(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			// Parser rejection is the benign failure mode; reaching here
			// without a panic is the assertion.
			return
		}
		if cmd.Stats || cmd.Quit {
			return
		}
		sys := core.NewSystem(core.DefaultConfig())
		cache, err := NewCache(sys, 1, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		req := cmd.Req
		if bytes.HasPrefix(req.Value, []byte(AttackMarker)) {
			req.Malicious = true
		}
		resp := srv.Handle(0, req)
		if req.Malicious {
			if !resp.Contained {
				t.Errorf("malicious request not contained: %+v", resp)
			}
			// The violation renders what its fmt form would.
			if v, ok := core.IsViolation(resp.Err); !ok {
				t.Errorf("contained request's error %v is no violation", resp.Err)
			} else if want := fmt.Sprintf("sdrad: domain %d violation (%s): %v", v.UDI, v.Mechanism, v.Cause); v.Error() != want {
				t.Errorf("violation renders %q, want %q", v.Error(), want)
			}
			var detections uint64
			for m := detect.MechDomainViolation; m <= detect.MechSegfault; m++ {
				detections += sys.Counters().Count(m)
			}
			if detections == 0 {
				t.Error("contained violation recorded no detection")
			}
			if _, _, hit, _ := cache.Get(req.Key); hit {
				t.Error("malicious SET reached the cache")
			}
		} else if resp.Contained {
			t.Errorf("benign request %q reported contained: %+v", in, resp)
		}
		// The supervisor must stay serviceable after any single request:
		// a benign probe on another connection goes through cleanly.
		probe := srv.Handle(1, workload.Request{Op: workload.OpGet, Key: "probe"})
		if probe.Err != nil || probe.Contained {
			t.Errorf("server unserviceable after %q: %+v", in, probe)
		}
	})
}

// FuzzDecodeRecord checks the WAL record decoder recovery runs over
// committed records: on any bytes it never panics, every error it
// returns is ErrBadRecord, and every record it accepts re-encodes
// through appendSet or appendDelete to exactly the bytes it decoded —
// so the record format has one encoder and one decoder that agree.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(appendSet(nil, "key", 7, time.Hour, []byte("value")))
	f.Add(appendSet(nil, "", 0, 0, nil))
	f.Add(appendSet(nil, "k\x00\xff", ^uint32(0), -1, bytes.Repeat([]byte{0xff}, 64)))
	f.Add(appendDelete(nil, "key"))
	f.Add(appendDelete(nil, ""))
	f.Add([]byte{})
	f.Add([]byte("S"))
	f.Add([]byte("S\xff\xff\xff\xffkey"))
	f.Add([]byte("S\x03\x00\x00\x00key\x00\x00\x00"))
	f.Add([]byte("X"))
	f.Fuzz(func(t *testing.T, rec []byte) {
		m, err := decodeRecord(rec)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decodeRecord(%q) error %v is not ErrBadRecord", rec, err)
			}
			return
		}
		var again []byte
		switch m.op {
		case recSet:
			again = appendSet(nil, m.key, m.flags, m.expireAt, m.value)
		case recDelete:
			again = appendDelete(nil, m.key)
		default:
			t.Fatalf("decodeRecord(%q) accepted opcode %#x", rec, m.op)
		}
		if !bytes.Equal(again, rec) {
			t.Errorf("decodeRecord(%q) = %+v, which re-encodes as %q", rec, m, again)
		}
	})
}
