package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
)

// TestLifecycleConformanceCluster runs the shared lifecycle battery
// against the cluster tier's two components: the router (which owns a
// node fleet and a registry) and the registry itself, each built by its
// constructor.
func TestLifecycleConformanceCluster(t *testing.T) {
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "cluster.Router",
			New: func(t *testing.T) lifecycle.Component {
				r, err := NewRouter(RouterConfig{
					Nodes:    2,
					Replicas: 1,
					Sys:      core.DefaultConfig(),
					Server:   kvstore.ServerConfig{Mode: kvstore.ModeSDRaD},
					Capacity: 16 << 20,
				})
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
		},
		{
			Name: "cluster.Registry",
			New: func(t *testing.T) lifecycle.Component {
				return NewRegistry(4)
			},
		},
	})
}
