package kvstore

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/errtype"
	"repro/internal/workload"
)

// TestContainedRequestAllocations pins the host garbage of one contained
// heap-overflow SET through Pool.HandleContext and WriteResponse at 4:
// the *core.ViolationError, its typed cause, the cause's text and the
// violation's text. Before detection, trap, rewind and classification
// stopped allocating it made 12 (15 when caught at Free). Both places
// the allocator catches the overflow are pinned:
// at the in-domain Free (the overflow ran into the staged request's
// size field) and at the exit-time integrity sweep (it ran into a
// redzone no Free checked).
func TestContainedRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	ctx := context.Background()
	// A clean SET whose staged bytes (22) fill a 32-byte chunk: freed at
	// the end of its run, that chunk is the one the overflow's 32-byte
	// allocation reuses next.
	small := workload.Request{Op: workload.OpSet, Key: "key", Value: []byte("hello")}
	attack := workload.Request{
		Op: workload.OpSet, Key: "key", Malicious: true,
		Value: []byte(AttackMarker + " a value long enough to stage past 32 bytes"),
	}
	var out bytes.Buffer
	for _, tc := range []struct {
		name  string
		clean bool // serve small first, so the overflow lands at Free
		check alloc.Check
	}{
		{"caught at Free", true, alloc.SizeField},
		{"caught by the exit sweep", false, alloc.Redzone},
	} {
		serve := func() {
			if tc.clean {
				if resp := pool.HandleContext(ctx, 1, small); !resp.OK || resp.Err != nil {
					t.Fatalf("clean SET: ok=%v err=%v", resp.OK, resp.Err)
				}
			}
			resp := pool.HandleContext(ctx, 1, attack)
			if !resp.Contained {
				t.Fatalf("%s: attack not contained: %v", tc.name, resp.Err)
			}
			if ce, ok := errtype.As[*alloc.CheckError](resp.Err); !ok || ce.Check != tc.check {
				t.Fatalf("%s: cause %v, want a %v check", tc.name, resp.Err, tc.check)
			}
			out.Reset()
			if err := WriteResponse(&out, attack, resp); err != nil {
				t.Fatal(err)
			}
		}
		serve() // warm the staging buffers and the free lists
		if allocs := testing.AllocsPerRun(100, serve); allocs > 4 {
			t.Errorf("%s: a contained SET allocates %v times, want at most 4", tc.name, allocs)
		}
	}
}
