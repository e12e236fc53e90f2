package sdrad_test

import (
	"testing"

	sdrad "repro"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// root package's three components. Each case builds a fresh instance
// through its constructor per subtest, so the probes never share state.
func TestLifecycleConformance(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "Domain",
			New: func(t *testing.T) lifecycle.Component {
				d, err := sdrad.New().NewDomain(sdrad.WithHeapPages(2), sdrad.WithStackPages(2))
				if err != nil {
					t.Fatal(err)
				}
				return d
			},
		},
		{
			Name: "Pool",
			New: func(t *testing.T) lifecycle.Component {
				p, err := sdrad.NewPool(2)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			Name: "AsyncPool",
			New: func(t *testing.T) lifecycle.Component {
				pool, err := sdrad.NewPool(2)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = pool.Close() })
				a, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 64})
				if err != nil {
					t.Fatal(err)
				}
				return a
			},
		},
	})
}
