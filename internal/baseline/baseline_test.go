package baseline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/core"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

func fig4Engine(t *testing.T, u utility.Function) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(testutil.Fig4Problem(t, u))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestMaxCardinality(t *testing.T) {
	e := fig4Engine(t, utility.Threshold{D: 6})
	got, err := MaxCardinality(e)
	if err != nil {
		t.Fatal(err)
	}
	// V3 (node 2) carries 3 flows, V5 (node 4) carries 3 flows; they are
	// the unique top-2 by cardinality.
	if len(got.Nodes) != 2 || got.Nodes[0] != 2 || got.Nodes[1] != 4 {
		t.Errorf("placement = %v, want [2 4]", got.Nodes)
	}
	if got.Attracted != e.Evaluate(got.Nodes) {
		t.Error("reported value inconsistent")
	}
}

func TestMaxVehicles(t *testing.T) {
	e := fig4Engine(t, utility.Threshold{D: 6})
	got, err := MaxVehicles(e)
	if err != nil {
		t.Fatal(err)
	}
	// Volumes: V3 carries 6+6+3=15, V5 carries 6+3+2=11, V2 carries 6,
	// V4 carries 6. Top-2 = {V3, V5}.
	if len(got.Nodes) != 2 || got.Nodes[0] != 2 || got.Nodes[1] != 4 {
		t.Errorf("placement = %v, want [2 4]", got.Nodes)
	}
}

func TestMaxCustomersOptimalAtK1(t *testing.T) {
	// The paper notes MaxCustomers is optimal when k = 1.
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 10; trial++ {
		p := testutil.RandomProblem(t, rng, 15, 8, 1, utility.Linear{D: 60})
		e, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MaxCustomers(e)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force the best singleton.
		best := 0.0
		for v := 0; v < 15; v++ {
			if w := e.Evaluate([]graph.NodeID{graph.NodeID(v)}); w > best {
				best = w
			}
		}
		if math.Abs(got.Attracted-best) > 1e-9 {
			t.Fatalf("trial %d: MaxCustomers %v != best singleton %v",
				trial, got.Attracted, best)
		}
	}
}

func TestRandomStaysInSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := testutil.RandomProblem(t, rng, 60, 20, 5, utility.Linear{D: 40})
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	square := geo.Square(p.Graph.Point(p.Shop), 40)
	// Count candidates inside; if >= k, all placements must be inside.
	inside := 0
	for v := 0; v < p.Graph.NumNodes(); v++ {
		if square.Contains(p.Graph.Point(graph.NodeID(v))) {
			inside++
		}
	}
	for trial := 0; trial < 20; trial++ {
		got, err := Random(e, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Nodes) != 5 {
			t.Fatalf("placed %d, want 5", len(got.Nodes))
		}
		seen := map[graph.NodeID]bool{}
		for _, v := range got.Nodes {
			if seen[v] {
				t.Fatal("duplicate node")
			}
			seen[v] = true
		}
		if inside >= 5 {
			for _, v := range got.Nodes {
				if !square.Contains(p.Graph.Point(v)) {
					t.Fatalf("node %d outside D x D square", v)
				}
			}
		}
	}
}

func TestRandomFallsBackOutside(t *testing.T) {
	// Tiny threshold => almost no nodes in the square; Random must still
	// place k RAPs.
	rng := rand.New(rand.NewSource(73))
	p := testutil.RandomProblem(t, rng, 30, 10, 4, utility.Linear{D: 0.001})
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Random(e, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 4 {
		t.Fatalf("placed %d, want 4", len(got.Nodes))
	}
}

func TestRandomNilRNG(t *testing.T) {
	e := fig4Engine(t, utility.Linear{D: 6})
	if _, err := Random(e, nil); !errors.Is(err, ErrNilRand) {
		t.Errorf("err = %v, want ErrNilRand", err)
	}
}

// Greedy must dominate every baseline on any instance (it is at least as
// good step by step for the same engine); verify statistically.
func TestGreedyDominatesBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		p := testutil.RandomProblem(t, rng, 25, 15, 4, utility.Linear{D: 70})
		e, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.GreedyCombined(e)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := MaxCustomers(e)
		if err != nil {
			t.Fatal(err)
		}
		// Greedy's first pick equals MaxCustomers' first pick, and greedy
		// only improves from there; allow exact ties.
		if g.Attracted < mc.Attracted-1e-9 {
			t.Fatalf("trial %d: greedy %v < MaxCustomers %v",
				trial, g.Attracted, mc.Attracted)
		}
	}
}
