package sdrad_test

import (
	"testing"

	sdrad "repro"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// root package's three components. Each case builds a pristine deferred
// instance per subtest, so illegal-transition probes never share state.
func TestLifecycleConformance(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "Domain",
			New: func(t *testing.T) lifecycle.Component {
				return sdrad.New().DeferDomain(sdrad.WithHeapPages(2), sdrad.WithStackPages(2))
			},
		},
		{
			Name: "Pool",
			New: func(t *testing.T) lifecycle.Component {
				return sdrad.NewDeferredPool(2, nil)
			},
			Resize: func(c lifecycle.Component, n int) error {
				return c.(*sdrad.Pool).Resize(n)
			},
			Grow:   4,
			Shrink: 2,
		},
		{
			Name: "AsyncPool",
			New: func(t *testing.T) lifecycle.Component {
				pool, err := sdrad.NewPool(2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = pool.Close() })
				return sdrad.NewDeferredAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 64})
			},
		},
	})
}
