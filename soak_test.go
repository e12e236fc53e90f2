package sdrad_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	sdrad "repro"
	"repro/internal/workload"
)

// TestSoakMixedWorkload drives a long, deterministic mixed workload
// through the public API: several domains, interleaved benign work,
// injected bugs of rotating classes, FFI calls, sharing, and periodic
// domain churn. The invariants: no benign work is ever lost, every
// injected bug is contained, accounting is exact, and the supervisor's
// virtual clock only moves forward.
func TestSoakMixedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const iterations = 5_000

	sup := sdrad.New()
	rng := workload.NewRNG(2023)

	// Long-lived domains.
	var doms []*sdrad.Domain
	for i := 0; i < 4; i++ {
		d, err := sup.NewDomain()
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}

	// An FFI bridge with a checksum function.
	bridge, err := sup.NewBridge(sdrad.CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.Register(sdrad.Foreign{
		Name: "checksum",
		Fn: func(c *sdrad.Ctx, args []any) ([]any, error) {
			data := args[0].([]byte)
			buf := c.MustAlloc(len(data) + 1)
			c.MustStore(buf, data)
			tmp := make([]byte, len(data))
			c.MustLoad(buf, tmp)
			c.MustFree(buf)
			var sum int64
			for _, b := range tmp {
				sum += int64(b)
			}
			return []any{sum}, nil
		},
		Fallback: func([]any, *sdrad.ViolationError) ([]any, error) {
			return []any{int64(-1)}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	var wantViolations, benignRuns, ffiCalls uint64
	lastTime := sup.VirtualTime()

	for i := 0; i < iterations; i++ {
		d := doms[rng.Intn(len(doms))]
		switch rng.Intn(10) {
		case 0: // injected bug (rotating class via address pattern)
			err := d.Do(context.Background(), func(c *sdrad.Ctx) error {
				switch i % 3 {
				case 0:
					c.MustStore64(0xdead_0000_0000, 1) // wild write
				case 1:
					p := c.MustAlloc(16)
					c.MustStore(p, make([]byte, 32)) // heap overflow
					c.MustFree(p)                    // detected here
				default:
					c.Violate(errors.New("logic-detected corruption"))
				}
				return nil
			})
			if _, ok := sdrad.IsViolation(err); !ok {
				t.Fatalf("iteration %d: bug not contained: %v", i, err)
			}
			wantViolations++
		case 1, 2: // FFI call
			payload := make([]byte, rng.Intn(512)+1)
			rng.Bytes(payload)
			res, err := bridge.Call("checksum", payload)
			if err != nil {
				t.Fatalf("iteration %d: ffi: %v", i, err)
			}
			var want int64
			for _, b := range payload {
				want += int64(b)
			}
			if res[0] != want {
				t.Fatalf("iteration %d: checksum %v != %v", i, res[0], want)
			}
			ffiCalls++
		case 3: // domain churn: close and replace
			idx := rng.Intn(len(doms))
			if err := doms[idx].Close(); err != nil {
				t.Fatalf("iteration %d: close: %v", i, err)
			}
			nd, err := sup.NewDomain()
			if err != nil {
				t.Fatalf("iteration %d: recreate: %v", i, err)
			}
			doms[idx] = nd
		default: // benign work with verification
			tag := byte(i)
			err := d.Do(context.Background(), func(c *sdrad.Ctx) error {
				n := rng.Intn(1024) + 1
				p := c.MustAlloc(n)
				data := make([]byte, n)
				for j := range data {
					data[j] = tag
				}
				c.MustStore(p, data)
				back := make([]byte, n)
				c.MustLoad(p, back)
				for j := range back {
					if back[j] != tag {
						return fmt.Errorf("data corruption at %d", j)
					}
				}
				c.MustFree(p)
				return nil
			})
			if err != nil {
				t.Fatalf("iteration %d: benign work: %v", i, err)
			}
			benignRuns++
		}

		if now := sup.VirtualTime(); now < lastTime {
			t.Fatalf("iteration %d: virtual time went backwards", i)
		} else {
			lastTime = now
		}
	}

	// Accounting: supervisor-level detections equal injected bugs (the
	// FFI fallback path contributes its own violations on top, but this
	// workload's checksum function never faults).
	var total uint64
	for _, n := range sup.DetectionCounts() {
		total += n
	}
	if total != wantViolations {
		t.Errorf("detections = %d, want %d", total, wantViolations)
	}
	if benignRuns == 0 || ffiCalls == 0 || wantViolations == 0 {
		t.Errorf("workload mix degenerate: benign=%d ffi=%d bugs=%d", benignRuns, ffiCalls, wantViolations)
	}
	t.Logf("soak: %d iterations, %d benign, %d ffi, %d contained bugs, %v virtual time",
		iterations, benignRuns, ffiCalls, wantViolations, sup.VirtualTime())
}
