package graph

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnected(rng, 30, 60)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("shape: (%d,%d) vs (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g2.Point(NodeID(v)) != g.Point(NodeID(v)) {
			t.Fatalf("point %d differs", v)
		}
	}
	// Distances must be identical.
	for u := 0; u < g.NumNodes(); u++ {
		t1, t2 := mustShortestFrom(t, g, NodeID(u)), mustShortestFrom(t, g2, NodeID(u))
		for v := 0; v < g.NumNodes(); v++ {
			if math.Abs(t1.Dist(NodeID(v))-t2.Dist(NodeID(v))) > 1e-12 {
				t.Fatalf("dist(%d,%d) differs after round trip", u, v)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"garbage", "not json"},
		{"badedge", `{"nodes":[{"x":0,"y":0}],"edges":[{"from":0,"to":5,"weight":1}]}`},
		{"badweight", `{"nodes":[{"x":0,"y":0},{"x":1,"y":0}],"edges":[{"from":0,"to":1,"weight":-1}]}`},
		{"empty", `{"nodes":[],"edges":[]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(c.in)); err == nil {
				t.Error("want error")
			}
		})
	}
}
