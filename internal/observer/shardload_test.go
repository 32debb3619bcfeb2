package observer_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// TestShardLoadAggregation runs a node under real traffic and checks the
// observer folds the switch occupancy section of its status reports into
// the cluster view: one ShardLoad for the engine's single switch, work
// recorded, and the rendered histogram block carrying its line.
func TestShardLoadAggregation(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	o := startObserver(t, n)

	sink := &tracker{}
	startNode(t, n, nid(2), obsID, sink)

	src := &tracker{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	e, err := engine.New(engine.Config{
		ID:             nid(1),
		Transport:      engine.VNet{Net: n},
		Algorithm:      src,
		Observer:       obsID,
		StatusInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("engine.Start: %v", err)
	}
	t.Cleanup(e.Stop)
	e.StartSource(5, 0, 2048)

	waitFor(t, 5*time.Second, "switch load in the cluster view", func() bool {
		loads := o.ShardLoads()
		return len(loads) == 1 && loads[0].Shard == 0 && loads[0].Nodes >= 1 && loads[0].Switched > 0
	})

	rendered := o.RenderHists()
	for _, want := range []string{"shard 0:", "switched="} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderHists missing %q:\n%s", want, rendered)
		}
	}
}
