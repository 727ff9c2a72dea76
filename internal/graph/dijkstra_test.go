package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/geo"
)

func TestDijkstraLine(t *testing.T) {
	g := line(t, 6)
	tr, err := g.ShortestFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		if tr.Dist(NodeID(v)) != float64(v) {
			t.Errorf("dist(0,%d) = %v", v, tr.Dist(NodeID(v)))
		}
	}
	p, err := tr.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if tr.Root() != 0 {
		t.Errorf("root = %d", tr.Root())
	}
}

func TestDijkstraPicksShorterRoute(t *testing.T) {
	// Triangle with a long direct edge and a short two-hop route.
	b := NewBuilder(3, 3)
	a := b.AddNode(geo.Pt(0, 0))
	m := b.AddNode(geo.Pt(1, 0))
	c := b.AddNode(geo.Pt(2, 0))
	if err := b.AddEdge(a, c, 10); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(a, m, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(m, c, 3); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path, d, err := g.ShortestPath(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 6 || len(path) != 3 || path[1] != m {
		t.Errorf("path = %v, d = %v", path, d)
	}
}

func TestDijkstraRespectsDirection(t *testing.T) {
	b := NewBuilder(2, 1)
	u := b.AddNode(geo.Pt(0, 0))
	v := b.AddNode(geo.Pt(1, 0))
	if err := b.AddEdge(u, v, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := g.ShortestFrom(v)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reachable(u) {
		t.Error("one-way edge traversed backwards")
	}
	if _, err := tr.Path(u); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Path to unreachable: %v", err)
	}
	if !math.IsInf(tr.Dist(u), 1) {
		t.Errorf("dist = %v, want +Inf", tr.Dist(u))
	}
}

func TestShortestToMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(rng, 60, 120)
	dst := NodeID(17)
	rev, err := g.ShortestTo(dst)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumNodes(); u++ {
		fwd, err := g.ShortestFrom(NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fwd.Dist(dst)-rev.Dist(NodeID(u))) > 1e-9 {
			t.Fatalf("dist(%d,%d): forward %v vs reverse %v",
				u, dst, fwd.Dist(dst), rev.Dist(NodeID(u)))
		}
	}
	// Reverse-tree paths run v..dst and are valid graph paths of the
	// reported length.
	p, err := rev.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 3 || p[len(p)-1] != dst {
		t.Fatalf("reverse path endpoints: %v", p)
	}
	l, err := g.PathLength(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-rev.Dist(3)) > 1e-9 {
		t.Errorf("path length %v vs dist %v", l, rev.Dist(3))
	}
}

// TestAllPairsGridIsManhattan: on a full two-way grid the shortest-path
// distance between every pair of nodes is their Manhattan distance.
func TestAllPairsGridIsManhattan(t *testing.T) {
	const n = 7
	g := gridGraph(t, n, 100)
	for u := 0; u < n*n; u++ {
		tr := mustShortestFrom(t, g, NodeID(u))
		for v := 0; v < n*n; v++ {
			want := g.Point(NodeID(u)).Manhattan(g.Point(NodeID(v)))
			if got := tr.Dist(NodeID(v)); math.Abs(got-want) > 1e-9 {
				t.Fatalf("grid dist(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestDijkstraInvalidInputs(t *testing.T) {
	g := line(t, 3)
	if _, err := g.ShortestFrom(-1); !errors.Is(err, ErrNodeRange) {
		t.Errorf("ShortestFrom(-1): %v", err)
	}
	if _, err := g.ShortestTo(5); !errors.Is(err, ErrNodeRange) {
		t.Errorf("ShortestTo(5): %v", err)
	}
	if _, _, err := g.ShortestPath(0, 9); !errors.Is(err, ErrNodeRange) {
		t.Errorf("ShortestPath bad dst: %v", err)
	}
}

// Property: Dijkstra distances satisfy the relaxation fixed point —
// for every edge (u,v,w): dist(v) <= dist(u) + w, and every reachable
// non-root node has a parent edge achieving equality.
func TestDijkstraFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randomConnected(rng, 40+rng.Intn(40), 150)
		src := NodeID(rng.Intn(g.NumNodes()))
		tr, err := g.ShortestFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			g.ForEachOut(NodeID(u), func(v NodeID, w float64) bool {
				if tr.Dist(v) > tr.Dist(NodeID(u))+w+1e-9 {
					t.Errorf("trial %d: edge (%d,%d,%v) not relaxed", trial, u, v, w)
				}
				return true
			})
			if NodeID(u) != src && tr.Reachable(NodeID(u)) {
				p := tr.Parent(NodeID(u))
				w, err := g.EdgeWeight(p, NodeID(u))
				if err != nil {
					t.Fatalf("trial %d: parent edge missing: %v", trial, err)
				}
				if math.Abs(tr.Dist(p)+w-tr.Dist(NodeID(u))) > 1e-9 {
					t.Errorf("trial %d: parent edge not tight at %d", trial, u)
				}
			}
		}
	}
}

// Property: path returned by Path() is a valid graph path with length equal
// to the reported distance.
func TestDijkstraPathConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomConnected(rng, 50, 100)
		src := NodeID(rng.Intn(50))
		tr, err := g.ShortestFrom(src)
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			v := NodeID(rng.Intn(50))
			p, err := tr.Path(v)
			if err != nil {
				t.Fatal(err)
			}
			if p[0] != src || p[len(p)-1] != v {
				t.Fatalf("endpoints: %v", p)
			}
			l, err := g.PathLength(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(l-tr.Dist(v)) > 1e-9 {
				t.Fatalf("length %v != dist %v", l, tr.Dist(v))
			}
		}
	}
}

func BenchmarkDijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnected(rng, 1000, 4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.ShortestFrom(NodeID(i % 1000))
	}
}
