// Quickstart: create a domain, run work in it with the Execution API v2
// (Do + RunOptions), survive a memory-safety violation, and cancel a
// runaway run with a deterministic cycle budget.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	sdrad "repro"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("quickstart: %v", err)
	}
}

func run() error {
	sup := sdrad.New()

	dom, err := sup.NewDomain()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := dom.Close(); cerr != nil {
			log.Printf("close: %v", cerr)
		}
	}()

	// 1. Normal work inside the domain: allocate, write, read back.
	var out []byte
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		c.MustStore(p, []byte("resilient hello"))
		out = make([]byte, 15)
		c.MustLoad(p, out)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("1. domain computed: %q\n", out)

	// 2. A wild write inside the domain. On a conventional server this is
	// a crash; here the domain is rewound and discarded. The per-call
	// policy rides in RunOptions: retry the run once after a rewind, and
	// if it still violates, take the paper's alternate action.
	attempts := 0
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		attempts++
		c.MustStore64(0xdeadbeef000, 0x41) // memory-corruption bug fires
		fmt.Println("   (unreachable)")
		return nil
	},
		sdrad.WithRetries(1),
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			fmt.Printf("2. contained violation: mechanism=%s (domain %d rewound, %d attempts)\n",
				v.Mechanism, v.UDI, attempts)
			return nil // alternate action: absorb it
		}))
	if err != nil {
		return err
	}

	// 3. The same domain is immediately reusable — that is the
	// availability story of the paper.
	err = dom.Do(context.Background(),
		func(c *sdrad.Ctx) error {
			p := c.MustAlloc(32)
			c.MustStore(p, []byte("back in business"))
			return nil
		},
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			return errors.New("unexpected second violation")
		}))
	if err != nil {
		return err
	}
	st, err := dom.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("3. domain healthy again: entries=%d violations=%d rewind-time=%v\n",
		st.Entries, st.Violations, st.RewindTime)

	// 4. A runaway run is cancelled deterministically: the context
	// deadline maps to a virtual-cycle budget (WithCycleBudget sets one
	// explicitly; the tighter of the two applies), and exhausting it
	// rewinds the domain just like a violation — but typed as a
	// *BudgetError.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	scratch := make([]byte, 4096)
	err = dom.Do(ctx, func(c *sdrad.Ctx) error {
		p := c.MustAlloc(len(scratch))
		for { // runaway loop: burns virtual cycles forever
			c.MustStore(p, scratch)
		}
	}, sdrad.WithCycleBudget(2_000_000))
	if b, ok := sdrad.IsBudget(err); ok {
		fmt.Printf("4. runaway run preempted after %d virtual cycles (budget %d)\n", b.Used, b.Budget)
	} else if err != nil {
		return err
	}
	fmt.Printf("   virtual machine time elapsed: %v\n", sup.VirtualTime())
	return nil
}
