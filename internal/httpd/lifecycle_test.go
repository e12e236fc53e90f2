package httpd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// deferred network server. Resize exercises the per-worker parsing-domain
// set (dispatch is least-loaded, so the count is a pure concurrency knob).
func TestLifecycleConformance(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "httpd.NetServer",
			New: func(t *testing.T) lifecycle.Component {
				p, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD}, 2)
				if err != nil {
					t.Fatal(err)
				}
				p.HandleFunc("/", []byte("ok\n"))
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
