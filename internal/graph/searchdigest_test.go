package graph_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/flow"
	"roadside/internal/graph"
)

// frozenSearchDigest is the digest TestFrozenSearchDigest produces. It
// pins the heap's pop sequence, ties included: every parent pointer below
// follows from that sequence, and the Seattle fixtures' flows are citygen
// routes built from ShortestPath, so a changed tie order would move their
// paths and hence the many-to-many groups. It was re-taken, with only this
// test changed, when A* paths left the hash, so it pins the searches of
// the code that passed the previous constant.
const frozenSearchDigest = 0x20d28dc4acec7611

// searchFixture is one frozen city: its graph and its flows.
type searchFixture struct {
	name  string
	g     *graph.Graph
	flows []flow.Flow
}

// searchFixtures builds Seattle seeds 1–3 and an unjittered lattice, each
// with its bus-route flows, and a 20k-node mega city with hub-local flows.
// The jittered cities have almost no distance ties; the lattice's equal
// street lengths tie nearly every pair of equal-hop paths, so its trees
// and routes depend on the heap's pop order among equal distances.
func searchFixtures(t *testing.T) []searchFixture {
	t.Helper()
	lattice := citygen.Config{Name: "lattice", Rows: 24, Cols: 24, ExtentFeet: 23 * 300, DropProb: 0.05, OneWayProb: 0.04}
	var out []searchFixture
	for seed := int64(1); seed <= 4; seed++ {
		cfg := citygen.SeattleConfig()
		if seed == 4 {
			cfg = lattice
		}
		city, err := citygen.Generate(cfg, seed)
		if err != nil {
			t.Fatal(err)
		}
		routes, err := citygen.GenerateRoutes(city, citygen.DefaultDemand(), seed)
		if err != nil {
			t.Fatal(err)
		}
		flows, err := citygen.RoutesToFlows(routes, 100, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, searchFixture{name: city.Name, g: city.Graph, flows: flows})
	}
	mega, err := citygen.Mega(20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	demand := citygen.LocalDemandConfig{Flows: 2_000, Hubs: 16, MinHops: 8, MaxHops: 48, VolumeMean: 3, Alpha: 1}
	megaFlows, err := citygen.GenerateLocalFlows(mega, demand, 8)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, searchFixture{name: "mega", g: mega.Graph, flows: megaFlows})
}

// destinationGroups pools the flows by destination, in order of first
// appearance, with each group's sources being its flows' path nodes
// concatenated in flow order — the shape the placement engine queries.
func destinationGroups(flows []flow.Flow) []graph.M2MGroup {
	index := map[graph.NodeID]int{}
	var groups []graph.M2MGroup
	for _, f := range flows {
		gi, ok := index[f.Dest]
		if !ok {
			gi = len(groups)
			index[f.Dest] = gi
			groups = append(groups, graph.M2MGroup{Target: f.Dest})
		}
		groups[gi].Sources = append(groups[gi].Sources, f.Path...)
	}
	return groups
}

func hashUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashTree(h hash.Hash64, g *graph.Graph, tr *graph.Tree) {
	for v := 0; v < g.NumNodes(); v++ {
		hashUint64(h, math.Float64bits(tr.Dist(graph.NodeID(v))))
		if !tr.DistOnly() {
			hashUint64(h, uint64(uint32(tr.Parent(graph.NodeID(v)))))
		}
	}
}

// TestFrozenSearchDigest hashes, on each fixture, the distances and parent
// pointers of ShortestFrom and ShortestTo from a few roots, the DistOnly
// Trees batch over the same roots and the ManyToManyGrouped columns of the
// fixture's destination groups, both batches at workers 1, 2 and 8, and
// compares the hash to frozenSearchDigest.
func TestFrozenSearchDigest(t *testing.T) {
	h := fnv.New64a()
	for _, fx := range searchFixtures(t) {
		n := fx.g.NumNodes()
		roots := []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(2 * n / 3), fx.flows[0].Dest}
		var reqs []graph.TreeReq
		for _, r := range roots {
			from, err := fx.g.ShortestFrom(r)
			if err != nil {
				t.Fatal(err)
			}
			to, err := fx.g.ShortestTo(r)
			if err != nil {
				t.Fatal(err)
			}
			hashTree(h, fx.g, from)
			hashTree(h, fx.g, to)
			reqs = append(reqs,
				graph.TreeReq{Root: r, DistOnly: true},
				graph.TreeReq{Root: r, Reverse: true, DistOnly: true})
		}
		groups := destinationGroups(fx.flows)
		for _, workers := range []int{1, 2, 8} {
			trees, err := fx.g.Trees(reqs, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range trees {
				hashTree(h, fx.g, tr)
			}
			cols, err := fx.g.ManyToManyGrouped(groups, workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, col := range cols {
				hashUint64(h, uint64(len(col)))
				for _, d := range col {
					hashUint64(h, math.Float64bits(d))
				}
			}
		}
	}
	if got := h.Sum64(); got != frozenSearchDigest {
		t.Fatalf("search digest %#x, frozen %#x: a settled distance, a parent pointer or a citygen route changed", got, uint64(frozenSearchDigest))
	}
}
