package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/geo"
)

// refRect computes the (sources x targets) rectangle the slow way: one full
// reverse Dijkstra per target column. This is the differential oracle every
// ManyToMany test compares against, cell by cell, with Float64bits equality.
func refRect(tb testing.TB, g *Graph, sources, targets []NodeID) [][]float64 {
	tb.Helper()
	out := make([][]float64, len(sources))
	for i := range out {
		out[i] = make([]float64, len(targets))
	}
	for j, t := range targets {
		tr, err := g.ShortestTo(t)
		if err != nil {
			tb.Fatal(err)
		}
		for i, s := range sources {
			out[i][j] = tr.Dist(s)
		}
	}
	return out
}

func assertRectBits(tb testing.TB, r *Rect, want [][]float64) {
	tb.Helper()
	if r.NumSources() != len(want) {
		tb.Fatalf("rows = %d, want %d", r.NumSources(), len(want))
	}
	for i := range want {
		if r.NumTargets() != len(want[i]) {
			tb.Fatalf("cols = %d, want %d", r.NumTargets(), len(want[i]))
		}
		for j := range want[i] {
			got := r.Dist(i, j)
			if math.Float64bits(got) != math.Float64bits(want[i][j]) {
				tb.Fatalf("dist(%d,%d) = %v (bits %x), want %v (bits %x)",
					i, j, got, math.Float64bits(got),
					want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
}

func sampleNodes(rng *rand.Rand, n, k int) []NodeID {
	out := make([]NodeID, k)
	for i := range out {
		out[i] = NodeID(rng.Intn(n))
	}
	return out
}

// TestManyToManyDifferentialRandom is the core differential contract: on
// random strongly-connected digraphs, every rectangle cell must be
// bit-identical to a per-destination Dijkstra.
func TestManyToManyDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(70)
		g := randomConnected(rng, n, n+rng.Intn(3*n))
		sources := sampleNodes(rng, n, 1+rng.Intn(2*n))
		targets := sampleNodes(rng, n, 1+rng.Intn(n))
		r, err := g.ManyToMany(sources, targets, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertRectBits(t, r, refRect(t, g, sources, targets))
	}
}

// TestManyToManyGrid pins the contract on the lattice family, which is full
// of exact distance ties — the graphs where a re-associated float sum (e.g.
// from contraction shortcuts) would first become observable.
func TestManyToManyGrid(t *testing.T) {
	g := gridGraph(t, 9, 250)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(9))
	sources := sampleNodes(rng, n, 40)
	targets := sampleNodes(rng, n, 15)
	r, err := g.ManyToMany(sources, targets, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertRectBits(t, r, refRect(t, g, sources, targets))
}

// TestManyToManyDisconnected checks that pairs with no path report exactly
// +Inf, on a graph with two mutually unreachable halves.
func TestManyToManyDisconnected(t *testing.T) {
	b := NewBuilder(6, 6)
	for i := 0; i < 6; i++ {
		b.AddNode(geo.Pt(float64(i), 0))
	}
	// Two 3-cycles with no edges between them.
	for _, c := range [][3]NodeID{{0, 1, 2}, {3, 4, 5}} {
		for i := 0; i < 3; i++ {
			if err := b.AddEdge(c[i], c[(i+1)%3], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sources := []NodeID{0, 1, 3, 5}
	targets := []NodeID{2, 4}
	r, err := g.ManyToMany(sources, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertRectBits(t, r, refRect(t, g, sources, targets))
	// Spot-check the cross-component cells really are +Inf.
	if !math.IsInf(r.Dist(0, 1), 1) || !math.IsInf(r.Dist(2, 0), 1) {
		t.Fatal("cross-component distance should be +Inf")
	}
}

// TestManyToManyEmptySets: empty sources or targets yield an empty
// rectangle, not an error.
func TestManyToManyEmptySets(t *testing.T) {
	g := line(t, 4)
	for _, tc := range []struct{ s, tg []NodeID }{
		{nil, []NodeID{0, 1}},
		{[]NodeID{0, 1}, nil},
		{nil, nil},
	} {
		r, err := g.ManyToMany(tc.s, tc.tg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumSources() != len(tc.s) || r.NumTargets() != len(tc.tg) {
			t.Fatalf("dims = %dx%d, want %dx%d",
				r.NumSources(), r.NumTargets(), len(tc.s), len(tc.tg))
		}
	}
}

// TestManyToManyDuplicates: repeated query positions each get their answer.
func TestManyToManyDuplicates(t *testing.T) {
	g := line(t, 6)
	sources := []NodeID{2, 2, 0, 2, 5}
	targets := []NodeID{4, 4, 0, 4}
	r, err := g.ManyToMany(sources, targets, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertRectBits(t, r, refRect(t, g, sources, targets))
	if r.Source(1) != 2 || r.Target(3) != 4 {
		t.Fatal("query accessors must echo the original slices")
	}
}

// TestManyToManySelfPairs: d(v, v) is exactly zero.
func TestManyToManySelfPairs(t *testing.T) {
	g := gridGraph(t, 4, 100)
	nodes := []NodeID{0, 5, 11, 15}
	r, err := g.ManyToMany(nodes, nodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		if d := r.Dist(i, i); d != 0 {
			t.Fatalf("d(%d,%d) = %v, want 0", nodes[i], nodes[i], d)
		}
	}
}

// TestManyToManyDenseFallback exercises the run-to-exhaustion path: sources
// covering every node trip the 3/4 dense threshold, and the answers must
// still be bit-identical.
func TestManyToManyDenseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnected(rng, 30, 90)
	sources := make([]NodeID, 30)
	for i := range sources {
		sources[i] = NodeID(i)
	}
	targets := sampleNodes(rng, 30, 6)
	r, err := g.ManyToMany(sources, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertRectBits(t, r, refRect(t, g, sources, targets))
}

// TestManyToManyInvalidNodes: out-of-range queries are rejected with
// ErrNodeRange before any search runs.
func TestManyToManyInvalidNodes(t *testing.T) {
	g := line(t, 3)
	if _, err := g.ManyToMany([]NodeID{0, 7}, []NodeID{1}, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad source: err = %v, want ErrNodeRange", err)
	}
	if _, err := g.ManyToMany([]NodeID{0}, []NodeID{-2}, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad target: err = %v, want ErrNodeRange", err)
	}
	if _, err := g.ManyToManyGrouped([]M2MGroup{{Target: 5}}, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad group target: err = %v, want ErrNodeRange", err)
	}
	if _, err := g.ManyToManyGrouped([]M2MGroup{{Target: 0, Sources: []NodeID{9}}}, 1); !errors.Is(err, ErrNodeRange) {
		t.Fatalf("bad group source: err = %v, want ErrNodeRange", err)
	}
}

// TestManyToManyGroupedDifferential pins the grouped primitive the engine
// consumes: per-group source lists of varying size, including empty groups.
func TestManyToManyGroupedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 15; trial++ {
		n := 12 + rng.Intn(50)
		g := randomConnected(rng, n, n+rng.Intn(2*n))
		groups := make([]M2MGroup, 1+rng.Intn(8))
		for gi := range groups {
			groups[gi] = M2MGroup{
				Target:  NodeID(rng.Intn(n)),
				Sources: sampleNodes(rng, n, rng.Intn(n)),
			}
		}
		out, err := g.ManyToManyGrouped(groups, 1+rng.Intn(4))
		if err != nil {
			t.Fatal(err)
		}
		for gi, grp := range groups {
			tr, err := g.ShortestTo(grp.Target)
			if err != nil {
				t.Fatal(err)
			}
			if len(out[gi]) != len(grp.Sources) {
				t.Fatalf("group %d: %d answers for %d sources", gi, len(out[gi]), len(grp.Sources))
			}
			for k, s := range grp.Sources {
				if math.Float64bits(out[gi][k]) != math.Float64bits(tr.Dist(s)) {
					t.Fatalf("trial %d group %d source %d: %v != %v",
						trial, gi, k, out[gi][k], tr.Dist(s))
				}
			}
		}
	}
}

// TestManyToManyRectBudget: a rectangle beyond the byte budget is refused
// with a descriptive error instead of an allocation attempt. The budget is
// a compile-time constant, so drive it via the public API with a graph
// large enough that |sources| x |targets| crosses 2 GiB worth of cells —
// infeasible to build in a unit test — hence this checks the arithmetic via
// the grouped path's caller contract and the error text instead.
func TestManyToManyRectBudget(t *testing.T) {
	// 2<<30 bytes / 8 = 268,435,456 cells. 20,000 x 20,000 = 4e8 cells
	// crosses it without allocating anything (validation happens first, and
	// the source slice itself is only 160 KB).
	n := 20000
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Pt(float64(i), 0))
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddStreet(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := make([]NodeID, n)
	for i := range q {
		q[i] = NodeID(i)
	}
	if _, err := g.ManyToMany(q, q, 1); !errors.Is(err, ErrRectTooLarge) {
		t.Fatalf("err = %v, want ErrRectTooLarge", err)
	}
}

// TestTreesDistOnly: DistOnly trees report identical distances, Invalid
// parents, and an ErrDistOnly path error.
func TestTreesDistOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 40, 120)
	reqs := []TreeReq{
		{Root: 7, Reverse: true, DistOnly: true},
		{Root: 7, Reverse: true},
		{Root: 3, Reverse: false, DistOnly: true},
		{Root: 3, Reverse: false},
	}
	trees, err := g.Trees(reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pair := 0; pair < len(reqs); pair += 2 {
		slim, full := trees[pair], trees[pair+1]
		if !slim.DistOnly() || full.DistOnly() {
			t.Fatal("DistOnly flag mismatch")
		}
		for v := 0; v < g.NumNodes(); v++ {
			if math.Float64bits(slim.Dist(NodeID(v))) != math.Float64bits(full.Dist(NodeID(v))) {
				t.Fatalf("dist-only tree diverges at node %d", v)
			}
			if slim.Parent(NodeID(v)) != Invalid {
				t.Fatalf("dist-only parent(%d) != Invalid", v)
			}
		}
		if _, err := slim.Path(NodeID(1)); !errors.Is(err, ErrDistOnly) {
			t.Fatalf("Path on dist-only tree: err = %v, want ErrDistOnly", err)
		}
		if _, err := full.Path(NodeID(1)); err != nil {
			t.Fatalf("Path on full tree: %v", err)
		}
	}
}

// TestBuilderNodeCountGuard exercises the int32 id-space guard Build runs
// before converting node counts, without allocating 2^31 points.
func TestBuilderNodeCountGuard(t *testing.T) {
	if err := checkNodeCount(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 nodes must be accepted: %v", err)
	}
	if err := checkNodeCount(math.MaxInt32 + 1); !errors.Is(err, ErrTooManyNode) {
		t.Fatalf("err = %v, want ErrTooManyNode", err)
	}
}
