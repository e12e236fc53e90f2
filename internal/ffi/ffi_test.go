package ffi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/serde"
)

func newBridge(t *testing.T, codec serde.Codec) (*Bridge, *core.System) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
		t.Fatal(err)
	}
	b, err := NewBridge(sys, 1, codec)
	if err != nil {
		t.Fatal(err)
	}
	return b, sys
}

func TestCallRoundTrip(t *testing.T) {
	for _, codec := range serde.Codecs() {
		if codec.Name() == "raw" {
			continue // raw cannot carry int results
		}
		t.Run(codec.Name(), func(t *testing.T) {
			b, _ := newBridge(t, codec)
			err := b.Register(Registration{
				Name: "add",
				Fn: func(_ *core.DomainCtx, args []any) ([]any, error) {
					return []any{args[0].(int64) + args[1].(int64)}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.Call("add", int64(2), int64(40))
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if len(res) != 1 || res[0] != int64(42) {
				t.Errorf("res = %#v", res)
			}
		})
	}
}

func TestRawCodecBytesRoundTrip(t *testing.T) {
	b, _ := newBridge(t, serde.Raw{})
	_ = b.Register(Registration{
		Name: "upper",
		Fn: func(_ *core.DomainCtx, args []any) ([]any, error) {
			in := args[0].([]byte)
			out := make([]byte, len(in))
			for i, ch := range in {
				if 'a' <= ch && ch <= 'z' {
					ch -= 32
				}
				out[i] = ch
			}
			return []any{out}, nil
		},
	})
	res, err := b.Call("upper", []byte("hello"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(res[0].([]byte)) != "HELLO" {
		t.Errorf("res = %q", res[0])
	}
}

func TestUnknownFunc(t *testing.T) {
	b, _ := newBridge(t, nil)
	if _, err := b.Call("nope"); !errors.Is(err, ErrUnknownFunc) {
		t.Errorf("err = %v, want ErrUnknownFunc", err)
	}
}

func TestDefaultCodecIsBinary(t *testing.T) {
	b, _ := newBridge(t, nil)
	if b.codec.Name() != "binary" {
		t.Errorf("default codec = %q", b.codec.Name())
	}
}

func TestRegisterValidation(t *testing.T) {
	b, _ := newBridge(t, nil)
	if err := b.Register(Registration{Name: ""}); err == nil {
		t.Error("empty registration accepted")
	}
	if err := b.Register(Registration{Name: "f"}); err == nil {
		t.Error("nil Fn accepted")
	}
	if len(b.funcs) != 0 {
		t.Error("invalid registrations were stored")
	}
}

func TestBridgeRequiresDomain(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := NewBridge(sys, 7, nil); !errors.Is(err, core.ErrNoDomain) {
		t.Errorf("err = %v, want ErrNoDomain", err)
	}
}

func TestViolationWithoutFallback(t *testing.T) {
	b, _ := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "crash",
		Fn: func(c *core.DomainCtx, _ []any) ([]any, error) {
			buf := make([]byte, 8)
			c.MustLoad(0xdead0000, buf) // wild read
			return nil, nil
		},
	})
	_, err := b.Call("crash")
	v, ok := core.IsViolation(err)
	if !ok {
		t.Fatalf("err = %v, want ViolationError", err)
	}
	if v.UDI != 1 {
		t.Errorf("UDI = %d", v.UDI)
	}
	st := b.Stats()
	if st.Violations != 1 || st.Fallbacks != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestViolationWithFallback(t *testing.T) {
	b, _ := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "parse",
		Fn: func(c *core.DomainCtx, args []any) ([]any, error) {
			if args[0].(string) == "evil" {
				p := c.MustAlloc(16)
				c.MustStore(p, make([]byte, 64)) // heap overflow
				_ = c.MustLoad64(0)              // never reached? overflow alone passes until exit sweep
			}
			return []any{int64(len(args[0].(string)))}, nil
		},
		Fallback: func(args []any, viol *core.ViolationError) ([]any, error) {
			return []any{int64(-1)}, nil
		},
	})
	// Benign call.
	res, err := b.Call("parse", "benign")
	if err != nil || res[0] != int64(6) {
		t.Fatalf("benign: %v, %v", res, err)
	}
	// Malicious call: fallback value, no error.
	res, err = b.Call("parse", "evil")
	if err != nil {
		t.Fatalf("evil call: %v", err)
	}
	if res[0] != int64(-1) {
		t.Errorf("fallback result = %v", res[0])
	}
	st := b.Stats()
	if st.Calls != 2 || st.Violations != 1 || st.Fallbacks != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The service keeps working after the violation.
	res, err = b.Call("parse", "again")
	if err != nil || res[0] != int64(5) {
		t.Errorf("post-violation call: %v, %v", res, err)
	}
}

func TestFallbackErrorPropagates(t *testing.T) {
	b, _ := newBridge(t, nil)
	sentinel := errors.New("fallback refused")
	_ = b.Register(Registration{
		Name: "f",
		Fn: func(c *core.DomainCtx, _ []any) ([]any, error) {
			c.Violate(errors.New("bad"))
			return nil, nil
		},
		Fallback: func([]any, *core.ViolationError) ([]any, error) {
			return nil, sentinel
		},
	})
	_, err := b.Call("f")
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestApplicationErrorPassesThrough(t *testing.T) {
	b, _ := newBridge(t, nil)
	sentinel := errors.New("app: invalid input")
	_ = b.Register(Registration{
		Name: "f",
		Fn: func(*core.DomainCtx, []any) ([]any, error) {
			return nil, sentinel
		},
		Fallback: func([]any, *core.ViolationError) ([]any, error) {
			t.Error("fallback must not run for app errors")
			return nil, nil
		},
	})
	_, err := b.Call("f")
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestEncodeErrorSurfaces(t *testing.T) {
	b, _ := newBridge(t, serde.Binary{})
	_ = b.Register(Registration{
		Name: "f",
		Fn:   func(*core.DomainCtx, []any) ([]any, error) { return []any{}, nil },
	})
	type unsupported struct{}
	if _, err := b.Call("f", unsupported{}); !errors.Is(err, serde.ErrUnsupportedType) {
		t.Errorf("err = %v, want ErrUnsupportedType", err)
	}
}

func TestEmptyResultVector(t *testing.T) {
	b, _ := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "void",
		Fn:   func(*core.DomainCtx, []any) ([]any, error) { return nil, nil },
	})
	res, err := b.Call("void")
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(res) != 0 {
		t.Errorf("res = %#v, want empty", res)
	}
}

func TestBytesAccounting(t *testing.T) {
	b, _ := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "echo",
		Fn: func(_ *core.DomainCtx, args []any) ([]any, error) {
			return args, nil
		},
	})
	payload := make([]byte, 1024)
	if _, err := b.Call("echo", payload); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.BytesIn < 1024 || st.BytesOut < 1024 {
		t.Errorf("bytes accounting = %+v", st)
	}
}

func TestRepeatedViolationsDoNotExhaustDomain(t *testing.T) {
	b, sys := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "crash",
		Fn: func(c *core.DomainCtx, _ []any) ([]any, error) {
			c.Violate(fmt.Errorf("crash"))
			return nil, nil
		},
		Fallback: func([]any, *core.ViolationError) ([]any, error) {
			return []any{}, nil
		},
	})
	for i := 0; i < 200; i++ {
		if _, err := b.Call("crash"); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	d, _ := sys.Domain(1)
	if d.Stats().Rewinds != 200 {
		t.Errorf("rewinds = %d, want 200", d.Stats().Rewinds)
	}
	// Heap pages bounded: rewind discards allocations, so the in-buffers
	// must not accumulate.
	if hp := d.Heap().Stats().HeapPages; hp > 64 {
		t.Errorf("heap grew to %d pages despite discards", hp)
	}
}

func TestSuccessfulCallsDoNotLeakDomainHeap(t *testing.T) {
	b, sys := newBridge(t, nil)
	_ = b.Register(Registration{
		Name: "echo",
		Fn:   func(_ *core.DomainCtx, args []any) ([]any, error) { return args, nil },
	})
	for i := 0; i < 500; i++ {
		if _, err := b.Call("echo", make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := sys.Domain(1)
	if live := d.Heap().Stats().LiveChunks; live != 0 {
		t.Errorf("%d chunks leaked across successful calls", live)
	}
}
