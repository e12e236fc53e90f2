package sdrad_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	sdrad "repro"
)

// The basic lifecycle: create a domain, run work, survive a violation.
func Example() {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		fmt.Println("init:", err)
		return
	}
	defer func() { _ = dom.Close() }()

	// Work inside the domain touches only domain memory.
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(32)
		c.MustStore(p, []byte("hello"))
		return nil
	})
	fmt.Println("clean run:", err)

	// A memory bug is contained: the domain rewinds, the program lives.
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		c.MustStore64(0xdead0000, 1)
		return nil
	})
	if v, ok := sdrad.IsViolation(err); ok {
		fmt.Println("contained:", v.Mechanism)
	}
	// Output:
	// clean run: <nil>
	// contained: segfault
}

// WithFallback is the paper's "alternate action": the caller supplies
// what to do when the domain is rewound.
func ExampleWithFallback() {
	sup := sdrad.New()
	dom, _ := sup.NewDomain()
	err := dom.Do(context.Background(),
		func(c *sdrad.Ctx) error {
			c.Violate(errors.New("corrupt input detected"))
			return nil
		},
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			fmt.Println("alternate action after rewind")
			return nil
		}),
	)
	fmt.Println("err:", err)
	// Output:
	// alternate action after rewind
	// err: <nil>
}

// The FFI bridge wraps memory-unsafe "foreign" functions with serialized
// argument passing and containment.
func ExampleSupervisor_NewBridge() {
	sup := sdrad.New()
	bridge, _ := sup.NewBridge(sdrad.CodecBinary)
	_ = bridge.Register(sdrad.Foreign{
		Name: "length",
		Fn: func(_ *sdrad.Ctx, args []any) ([]any, error) {
			return []any{int64(len(args[0].(string)))}, nil
		},
	})
	res, _ := bridge.Call("length", "hello ffi")
	fmt.Println("result:", res[0])
	// Output:
	// result: 9
}

// Read-only sharing lets one domain publish data another may read but
// not write.
func ExampleDomain_ShareReadOnlyWith() {
	sup := sdrad.New()
	owner, _ := sup.NewDomain()
	viewer, _ := sup.NewDomain()

	var addr sdrad.Addr
	_ = owner.Do(context.Background(), func(c *sdrad.Ctx) error {
		addr = c.MustAlloc(8)
		c.MustStore(addr, []byte("shared"))
		return nil
	})
	_ = owner.ShareReadOnlyWith(viewer)

	_ = viewer.Do(context.Background(), func(c *sdrad.Ctx) error {
		buf := make([]byte, 6)
		c.MustLoad(addr, buf)
		fmt.Printf("viewer read: %s\n", buf)
		return nil
	})
	err := viewer.Do(context.Background(), func(c *sdrad.Ctx) error {
		c.MustStore(addr, []byte("tamper"))
		return nil
	})
	_, isViolation := sdrad.IsViolation(err)
	fmt.Println("write contained:", isViolation)
	// Output:
	// viewer read: shared
	// write contained: true
}

// Quarantine cuts off a domain that keeps violating.
func ExampleDomain_SetViolationBudget() {
	sup := sdrad.New()
	dom, _ := sup.NewDomain()
	_ = dom.SetViolationBudget(2)
	for i := 0; i < 2; i++ {
		_ = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
			c.MustStore64(0, 1)
			return nil
		})
	}
	err := dom.Do(context.Background(), func(*sdrad.Ctx) error { return nil })
	fmt.Println("quarantined:", errors.Is(err, sdrad.ErrQuarantined))
	// Output:
	// quarantined: true
}

// Pool executes domains in parallel: N workers, each a private simulated
// machine with a warm domain, safe to share across goroutines.
func ExampleNewPool() {
	pool, _ := sdrad.NewPool(4)
	defer func() { _ = pool.Close() }()

	var wg sync.WaitGroup
	var contained atomic.Uint64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
				p := c.MustAlloc(32)
				c.MustStore(p, []byte("parallel work"))
				if g == 0 {
					c.MustStore64(0xbad000, 1) // one goroutine misbehaves
				}
				return nil
			})
			if _, ok := sdrad.IsViolation(err); ok {
				contained.Add(1)
			}
		}(g)
	}
	wg.Wait()

	fmt.Println("workers:", pool.Workers())
	fmt.Println("contained:", contained.Load())
	// Output:
	// workers: 4
	// contained: 1
}
