package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/geo"
)

func TestSPDAGCountPathsGrid(t *testing.T) {
	const n = 6
	g := gridGraph(t, n, 1)
	id := func(r, c int) NodeID { return NodeID(r*n + c) }
	d, err := NewSPDAG(g, id(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Paths from (0,0) to (r,c) in a grid = binomial(r+c, r).
	binom := func(a, b int) float64 {
		res := 1.0
		for i := 0; i < b; i++ {
			res = res * float64(a-i) / float64(i+1)
		}
		return math.Round(res)
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			got, err := d.CountPaths(id(r, c))
			if err != nil {
				t.Fatal(err)
			}
			if want := binom(r+c, r); got != want {
				t.Errorf("count (0,0)->(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestSPDAGCountPathsUnreachable(t *testing.T) {
	g := line(t, 3)
	// Make a directed-only builder instead: line() is bidirectional, so
	// craft a small one-way graph.
	b := NewBuilder(2, 1)
	u := b.AddNode(g.Point(0))
	v := b.AddNode(g.Point(1))
	if err := b.AddEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewSPDAG(g2, v)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.CountPaths(u)
	if err != nil || c != 0 {
		t.Errorf("count = %v, %v; want 0", c, err)
	}
	if _, err := d.CountPaths(99); !errors.Is(err, ErrNodeRange) {
		t.Errorf("bad node: %v", err)
	}
	if d.Source() != v {
		t.Errorf("source = %d", d.Source())
	}
}

func TestViaPathGrid(t *testing.T) {
	const n = 5
	g := gridGraph(t, n, 1)
	id := func(r, c int) NodeID { return NodeID(r*n + c) }
	d, err := NewSPDAG(g, id(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// (2,1) lies on a shortest path (0,0)->(4,3).
	p, err := d.ViaPath(id(2, 1), id(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != id(0, 0) || p[len(p)-1] != id(4, 3) {
		t.Fatalf("endpoints: %v", p)
	}
	l, err := g.PathLength(p)
	if err != nil {
		t.Fatal(err)
	}
	if l != 7 { // Manhattan distance (4+3)
		t.Errorf("via path length = %v, want 7", l)
	}
	found := false
	for _, v := range p {
		if v == id(2, 1) {
			found = true
		}
	}
	if !found {
		t.Errorf("via node missing from %v", p)
	}
	// (0,4) is NOT on any shortest path (0,0)->(4,0).
	if _, err := d.ViaPath(id(0, 4), id(4, 0)); !errors.Is(err, ErrUnreachable) {
		t.Errorf("off-path via: %v", err)
	}
	if _, err := d.ViaPath(-2, id(1, 1)); !errors.Is(err, ErrNodeRange) {
		t.Errorf("bad via: %v", err)
	}
}

// onShortestPath reports whether v lies on at least one shortest i->j
// path, d(i,v) + d(v,j) <= d(i,j) within distEpsilon, computed on a plain
// forward tree from i and reverse tree into j rather than on the SPDAG.
func onShortestPath(tb testing.TB, g *Graph, i, v, j NodeID) bool {
	tb.Helper()
	to, err := g.ShortestTo(j)
	if err != nil {
		tb.Fatal(err)
	}
	dij, div, dvj := to.Dist(i), mustShortestFrom(tb, g, i).Dist(v), to.Dist(v)
	if math.IsInf(dij, 1) || math.IsInf(div, 1) || math.IsInf(dvj, 1) {
		return false
	}
	return div+dvj <= dij+distEpsilon*(1+dij)
}

// TestOnShortestPathGrid pins the predicate TestViaPathAgreesWithPredicate
// trusts on a case with a known answer: from (0,0) to (2,2) on a grid,
// exactly the nodes of the 3x3 monotone rectangle lie on a shortest path.
func TestOnShortestPathGrid(t *testing.T) {
	const n = 5
	g := gridGraph(t, n, 1)
	id := func(r, c int) NodeID { return NodeID(r*n + c) }
	i, j := id(0, 0), id(2, 2)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			want := r <= 2 && c <= 2
			if got := onShortestPath(t, g, i, id(r, c), j); got != want {
				t.Errorf("(%d,%d): onShortestPath = %v, want %v", r, c, got, want)
			}
		}
	}
}

// TestOnShortestPathUnreachable: no node lies on a path to an unreachable
// destination, the endpoints included.
func TestOnShortestPathUnreachable(t *testing.T) {
	b := NewBuilder(3, 1)
	a := b.AddNode(geo.Pt(0, 0))
	c := b.AddNode(geo.Pt(1, 0))
	d := b.AddNode(geo.Pt(2, 0))
	if err := b.AddEdge(a, c, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []NodeID{a, c, d} {
		if onShortestPath(t, g, a, v, d) {
			t.Errorf("node %d on a path to unreachable %d", v, d)
		}
	}
	if !onShortestPath(t, g, a, c, c) {
		t.Error("reachable endpoint must lie on its own shortest path")
	}
}

// Property: for random graphs, v is on some shortest path i->j (per the
// predicate over plain Dijkstra trees) iff ViaPath succeeds, and the
// returned path has optimal length.
func TestViaPathAgreesWithPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := randomConnected(rng, 40, 80)
		src := NodeID(rng.Intn(40))
		from := mustShortestFrom(t, g, src)
		d, err := NewSPDAG(g, src)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 40; probe++ {
			via := NodeID(rng.Intn(40))
			dst := NodeID(rng.Intn(40))
			onPath := onShortestPath(t, g, src, via, dst)
			p, err := d.ViaPath(via, dst)
			if onPath != (err == nil) {
				t.Fatalf("trial %d: predicate %v but ViaPath err %v (src=%d via=%d dst=%d)",
					trial, onPath, err, src, via, dst)
			}
			if err == nil {
				l, lerr := g.PathLength(p)
				if lerr != nil {
					t.Fatal(lerr)
				}
				if math.Abs(l-from.Dist(dst)) > 1e-6 {
					t.Fatalf("trial %d: via path length %v != dist %v", trial, l, from.Dist(dst))
				}
			}
		}
	}
}
