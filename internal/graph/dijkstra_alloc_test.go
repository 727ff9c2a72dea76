package graph_test

import (
	"runtime"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/graph"
)

// TestDijkstraAllocBound bounds what one shortest-path tree allocates on a
// 20k-node mega city: the output arrays (8 bytes of distance per node, plus
// 4 of parent for a full tree) and a heap that grows with the search
// frontier. A heap sized to the node count up front would add 16 bytes per
// node and break the bound.
func TestDijkstraAllocBound(t *testing.T) {
	mega, err := citygen.Mega(20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	g := mega.Graph
	n := uint64(g.NumNodes())
	const slack = 64 << 10 // the frontier heap's growth plus the tree header
	for _, req := range []graph.TreeReq{
		{Root: 0},
		{Root: graph.NodeID(n / 2), Reverse: true},
		{Root: 0, DistOnly: true},
		{Root: graph.NodeID(n - 1), Reverse: true, DistOnly: true},
	} {
		perNode := uint64(12)
		if req.DistOnly {
			perNode = 8
		}
		run := func() {
			if _, err := g.Trees([]graph.TreeReq{req}, 1); err != nil {
				t.Fatal(err)
			}
		}
		run()
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := perNode*n + slack; got > limit {
			t.Errorf("%+v: %d bytes per tree, want <= %d (%d nodes)", req, got, limit, n)
		}
	}
}
