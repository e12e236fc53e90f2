package httpd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformance runs the shared lifecycle battery against the
// network server.
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
				n, err := NewBatchedNetServerPool(p, nil, 16, 4)
				if err != nil {
					t.Fatal(err)
				}
				return n
			},
		},
	})
}
