package kvstore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// sharded KV pool and the network server wrapping it.
func TestLifecycleConformance(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "kvstore.Pool",
			New: func(t *testing.T) lifecycle.Component {
				p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 2, 16<<20)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			Name: "kvstore.NetServer",
			New: func(t *testing.T) lifecycle.Component {
				p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 2, 16<<20)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = p.Close() })
				n, err := NewBatchedNetServerPool(p, nil, 16, 4)
				if err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
	})
}
