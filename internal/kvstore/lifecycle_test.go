package kvstore

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// sharded KV pool and the deferred network server wrapping it. Resize
// exercises the per-shard parser worker-domain set (key placement is
// untouched, so resizing is invisible to stored data).
func TestLifecycleConformance(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "kvstore.Pool",
			New: func(t *testing.T) lifecycle.Component {
				return NewDeferredPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 2, 16<<20)
			},
			Resize: func(c lifecycle.Component, n int) error {
				return c.(*Pool).ResizeWorkers(n)
			},
			Grow:   6,
			Shrink: 2,
		},
		{
			Name: "kvstore.NetServer",
			New: func(t *testing.T) lifecycle.Component {
				p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 2, 16<<20)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = p.Close() })
				return newNetServer(p, nil)
			},
			Resize: func(c lifecycle.Component, n int) error {
				return c.(*NetServer).ResizeWorkers(n)
			},
			Grow:   6,
			Shrink: 2,
		},
	})
}
