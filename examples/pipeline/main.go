// Pipeline scenario: multi-domain data flow with the SDRaD extensions —
// read-only sharing, zero-copy heap adoption, quarantine, and lifecycle
// tracing.
//
// A "config" domain owns shared configuration that worker domains may
// read but never write. A worker computes a result and hands its whole
// heap to the trusted runtime with DetachHeap (pkey retag — no copying).
// A misbehaving worker is quarantined after exhausting its violation
// budget. The trace at the end shows the full lifecycle.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	sdrad "repro"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("pipeline example: %v", err)
	}
}

func run() error {
	ctx := context.Background()
	sup := sdrad.New()
	ring := sup.StartTrace(128)

	// 1. The config domain owns shared, read-only configuration.
	config, err := sup.NewDomain()
	if err != nil {
		return err
	}
	var cfgAddr sdrad.Addr
	if err := config.Do(ctx, func(c *sdrad.Ctx) error {
		cfgAddr = c.MustAlloc(32)
		c.MustStore(cfgAddr, []byte("max_records=4096"))
		return nil
	}); err != nil {
		return err
	}

	// 2. A worker gets read access (not write) to the configuration.
	worker, err := sup.NewDomain()
	if err != nil {
		return err
	}
	if err := config.ShareReadOnlyWith(worker); err != nil {
		return err
	}
	var resultAddr sdrad.Addr
	if err := worker.Do(ctx, func(c *sdrad.Ctx) error {
		cfg := make([]byte, 16)
		c.MustLoad(cfgAddr, cfg) // allowed: read-only grant
		resultAddr = c.MustAlloc(64)
		c.MustStore(resultAddr, append([]byte("processed with "), cfg...))
		return nil
	}); err != nil {
		return err
	}
	fmt.Println("1. worker read shared config and computed a result")

	// A write to the shared config is a contained violation.
	err = worker.Do(ctx, func(c *sdrad.Ctx) error {
		c.MustStore(cfgAddr, []byte("tampered"))
		return nil
	})
	if v, ok := sdrad.IsViolation(err); ok {
		fmt.Printf("2. worker write to read-only config contained (%s)\n", v.Mechanism)
	} else {
		return fmt.Errorf("expected violation, got %v", err)
	}

	// 3. Hand the worker's heap to the trusted runtime without copying.
	// NOTE: the violation above discarded the worker heap, so recompute.
	if err := worker.Do(ctx, func(c *sdrad.Ctx) error {
		resultAddr = c.MustAlloc(64)
		c.MustStore(resultAddr, []byte("final result: 42"))
		return nil
	}); err != nil {
		return err
	}
	heap, err := worker.DetachHeap()
	if err != nil {
		return err
	}
	_ = heap
	// The result is still at the same address, now root-owned.
	got, err := config.Read(resultAddr, 16) // root-privileged read via any domain handle
	if err != nil {
		return err
	}
	fmt.Printf("3. adopted result without copying: %q\n", got)

	// 4. Quarantine: a crash-looping domain is cut off.
	flaky, err := sup.NewDomain()
	if err != nil {
		return err
	}
	if err := flaky.SetViolationBudget(3); err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		//lint:errclass the violation is the point; the budget check below observes its effect
		_ = flaky.Do(ctx, func(c *sdrad.Ctx) error {
			c.MustStore64(0, 1) // null write, every time
			return nil
		})
	}
	err = flaky.Do(ctx, func(*sdrad.Ctx) error { return nil })
	if errors.Is(err, sdrad.ErrQuarantined) {
		fmt.Println("4. crash-looping domain quarantined after 3 violations")
	} else {
		return fmt.Errorf("expected quarantine, got %v", err)
	}

	fmt.Printf("\nlifecycle trace (%d events):\n%s", ring.Len(), ring.Dump())
	return nil
}
