package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/geo"
)

// gridGraph builds an n x n Manhattan grid with two-way unit streets of
// length spacing. Node (r,c) has ID r*n+c.
func gridGraph(tb testing.TB, n int, spacing float64) *Graph {
	tb.Helper()
	b := NewBuilder(n*n, 4*n*n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			b.AddNode(geo.Pt(float64(c)*spacing, float64(r)*spacing))
		}
	}
	id := func(r, c int) NodeID { return NodeID(r*n + c) }
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			if c+1 < n {
				if err := b.AddStreet(id(r, c), id(r, c+1), spacing); err != nil {
					tb.Fatal(err)
				}
			}
			if r+1 < n {
				if err := b.AddStreet(id(r, c), id(r+1, c), spacing); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// mustShortestFrom returns the forward shortest-path tree from src.
func mustShortestFrom(tb testing.TB, g *Graph, src NodeID) *Tree {
	tb.Helper()
	tr, err := g.ShortestFrom(src)
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// line builds a path graph 0-1-2-...-(n-1) with unit two-way streets.
func line(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 2*n)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Pt(float64(i), 0))
	}
	for i := 0; i < n-1; i++ {
		if err := b.AddStreet(NodeID(i), NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomConnected builds a random strongly connected graph: a ring plus
// extra random edges.
func randomConnected(rng *rand.Rand, n, extra int) *Graph {
	b := NewBuilder(n, 2*n+extra)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Pt(rng.Float64()*1000, rng.Float64()*1000))
	}
	for i := 0; i < n; i++ {
		_ = b.AddEdge(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*10)
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			_ = b.AddEdge(NodeID(u), NodeID(v), 1+rng.Float64()*10)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(0, 0)
	a := b.AddNode(geo.Pt(0, 0))
	c := b.AddNode(geo.Pt(3, 4))
	if a != 0 || c != 1 || b.NumNodes() != 2 {
		t.Fatalf("ids %d %d, n=%d", a, c, b.NumNodes())
	}
	if err := b.AddEuclideanStreet(a, c); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	w, err := g.EdgeWeight(a, c)
	if err != nil || w != 5 {
		t.Errorf("weight = %v, %v", w, err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(0, 0)
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(1, 0))
	cases := []struct {
		name string
		err  error
		call func() error
	}{
		{"range", ErrNodeRange, func() error { return b.AddEdge(n0, 99, 1) }},
		{"negrange", ErrNodeRange, func() error { return b.AddEdge(-1, n1, 1) }},
		{"selfloop", ErrSelfLoop, func() error { return b.AddEdge(n0, n0, 1) }},
		{"zeroweight", ErrBadWeight, func() error { return b.AddEdge(n0, n1, 0) }},
		{"negweight", ErrBadWeight, func() error { return b.AddEdge(n0, n1, -3) }},
		{"nanweight", ErrBadWeight, func() error { return b.AddEdge(n0, n1, math.NaN()) }},
		{"infweight", ErrBadWeight, func() error { return b.AddEdge(n0, n1, math.Inf(1)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); !errors.Is(err, c.err) {
				t.Errorf("err = %v, want %v", err, c.err)
			}
		})
	}
	if _, err := NewBuilder(0, 0).Build(); !errors.Is(err, ErrNoNodes) {
		t.Errorf("empty Build: %v", err)
	}
}

func TestBuildDedupesParallelEdges(t *testing.T) {
	b := NewBuilder(2, 3)
	u := b.AddNode(geo.Pt(0, 0))
	v := b.AddNode(geo.Pt(1, 0))
	for _, w := range []float64{5, 2, 9} {
		if err := b.AddEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	w, err := g.EdgeWeight(u, v)
	if err != nil || w != 2 {
		t.Errorf("kept weight %v, want 2 (minimum)", w)
	}
}

func TestEdgeWeightMissing(t *testing.T) {
	g := line(t, 3)
	if _, err := g.EdgeWeight(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Errorf("missing edge: %v", err)
	}
	if _, err := g.EdgeWeight(0, 99); !errors.Is(err, ErrNodeRange) {
		t.Errorf("bad node: %v", err)
	}
}

func TestPathLength(t *testing.T) {
	g := line(t, 5)
	l, err := g.PathLength([]NodeID{0, 1, 2, 3})
	if err != nil || l != 3 {
		t.Errorf("PathLength = %v, %v", l, err)
	}
	if _, err := g.PathLength([]NodeID{0, 2}); err == nil {
		t.Error("invalid path accepted")
	}
	if l, err := g.PathLength([]NodeID{2}); err != nil || l != 0 {
		t.Errorf("singleton = %v, %v", l, err)
	}
	if l, err := g.PathLength(nil); err != nil || l != 0 {
		t.Errorf("nil = %v, %v", l, err)
	}
}

func TestForEachEarlyStop(t *testing.T) {
	b := NewBuilder(4, 6)
	u := b.AddNode(geo.Pt(0, 0))
	for i := 1; i <= 3; i++ {
		b.AddNode(geo.Pt(float64(i), 0))
		if err := b.AddEdge(u, NodeID(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	g.ForEachOut(u, func(NodeID, float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("visited %d, want 2", count)
	}
}

func TestBBoxAndPoints(t *testing.T) {
	g := line(t, 4)
	bb := g.BBox()
	if bb.Min != geo.Pt(0, 0) || bb.Max != geo.Pt(3, 0) {
		t.Errorf("bbox = %v", bb)
	}
	pts := g.Points()
	pts[0] = geo.Pt(99, 99) // must not alias internal state
	if g.Point(0) != geo.Pt(0, 0) {
		t.Error("Points() aliases internal storage")
	}
	if g.ValidNode(-1) || g.ValidNode(4) || !g.ValidNode(3) {
		t.Error("ValidNode wrong")
	}
}
