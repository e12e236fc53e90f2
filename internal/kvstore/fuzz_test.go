package kvstore

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/attackgen"
	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzReadCommand checks the protocol parser never panics and that every
// accepted command is structurally sound.
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
		if err != nil {
			return
		}
		if cmd.Stats || cmd.Quit {
			return
		}
		if cmd.Req.Key == "" {
			t.Errorf("accepted command with empty key: %q", in)
		}
		if len(cmd.Req.Value) > MaxValueSize {
			t.Errorf("accepted oversized value: %d", len(cmd.Req.Value))
		}
	})
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
			if sys.Counters().Total() == 0 {
				t.Error("contained violation recorded no detection")
			}
			if _, hit, _ := cache.Get(req.Key); hit {
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
