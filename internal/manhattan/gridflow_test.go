package manhattan

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

func gf(es BoundarySide, ei int, xs BoundarySide, xi int, vol float64) GridFlow {
	return GridFlow{
		EntrySide: es, EntryIndex: ei,
		ExitSide: xs, ExitIndex: xi,
		Volume: vol, Alpha: 1,
	}
}

func TestValidateGridFlow(t *testing.T) {
	s := mustScenario(t, 5, 1)
	if err := s.Validate(gf(West, 2, East, 2, 10)); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	cases := []struct {
		name string
		f    GridFlow
	}{
		{"sameside", gf(West, 1, West, 3, 10)},
		{"badentry", gf(West, 9, East, 2, 10)},
		{"badexit", gf(West, 1, South, -1, 10)},
		{"zerovol", gf(West, 1, East, 2, 0)},
		{"sameNode", gf(West, 0, South, 0, 10)}, // both are the SW corner
		{"zeroside", GridFlow{ExitSide: East, Volume: 1, Alpha: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := s.Validate(c.f); err == nil {
				t.Error("invalid flow accepted")
			}
		})
	}
	// Bad alpha.
	bad := gf(West, 1, East, 2, 10)
	bad.Alpha = 2
	if err := s.Validate(bad); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestClassify(t *testing.T) {
	s := mustScenario(t, 5, 1)
	cases := []struct {
		name string
		f    GridFlow
		want Kind
	}{
		{"hstraight", gf(West, 2, East, 2, 1), Straight},
		{"vstraight", gf(South, 3, North, 3, 1), Straight},
		{"turnedWS", gf(West, 2, South, 1, 1), Turned},
		{"turnedNE", gf(North, 0, East, 3, 1), Turned},
		{"otherH", gf(West, 1, East, 3, 1), Other}, // the paper's T3,8 shape
		{"otherV", gf(South, 0, North, 4, 1), Other},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := s.Classify(c.f); got != c.want {
				t.Errorf("Classify = %v, want %v", got, c.want)
			}
		})
	}
}

func TestEndpoints(t *testing.T) {
	s := mustScenario(t, 5, 1)
	entry, exit, err := s.Endpoints(gf(West, 3, South, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r, c := s.RC(entry); r != 3 || c != 0 {
		t.Errorf("entry rc = (%d,%d)", r, c)
	}
	if r, c := s.RC(exit); r != 0 || c != 2 {
		t.Errorf("exit rc = (%d,%d)", r, c)
	}
}

// ShortestPathNodes must contain exactly the nodes satisfying the
// on-some-shortest-path predicate of the underlying grid graph,
// d(i,v) + d(v,j) <= d(i,j) + ε(1+d(i,j)), evaluated on plain Dijkstra
// trees from the entry and into the exit rather than on the SPDAG the
// scenario itself uses.
func TestShortestPathNodesMatchesPredicate(t *testing.T) {
	s := mustScenario(t, 7, 1)
	rng := rand.New(rand.NewSource(5))
	sides := []BoundarySide{West, East, North, South}
	for trial := 0; trial < 40; trial++ {
		f := gf(sides[rng.Intn(4)], rng.Intn(7), sides[rng.Intn(4)], rng.Intn(7), 1)
		if s.Validate(f) != nil {
			continue
		}
		nodes, err := s.ShortestPathNodes(f)
		if err != nil {
			t.Fatal(err)
		}
		entry, exit, err := s.Endpoints(f)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[0] != entry || nodes[len(nodes)-1] != exit {
			t.Fatalf("endpoints not first/last: %v", nodes)
		}
		inSet := make(map[graph.NodeID]bool, len(nodes))
		for _, v := range nodes {
			if inSet[v] {
				t.Fatalf("duplicate node %d", v)
			}
			inSet[v] = true
		}
		from, err := s.Graph().ShortestFrom(entry)
		if err != nil {
			t.Fatal(err)
		}
		to, err := s.Graph().ShortestTo(exit)
		if err != nil {
			t.Fatal(err)
		}
		dij := from.Dist(exit)
		if math.IsInf(dij, 1) {
			t.Fatalf("trial %d: exit %d unreachable from entry %d", trial, exit, entry)
		}
		for v := 0; v < s.Graph().NumNodes(); v++ {
			div, dvj := from.Dist(graph.NodeID(v)), to.Dist(graph.NodeID(v))
			want := !math.IsInf(div+dvj, 1) && div+dvj <= dij+1e-6*(1+dij)
			if got := inSet[graph.NodeID(v)]; got != want {
				t.Fatalf("trial %d node %d: in rectangle %v, predicate %v",
					trial, v, got, want)
			}
		}
	}
}

// Straight flows must expand to exactly their street line.
func TestStraightFlowIsLine(t *testing.T) {
	s := mustScenario(t, 5, 1)
	nodes, err := s.ShortestPathNodes(gf(West, 2, East, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 5 {
		t.Fatalf("straight flow has %d nodes, want 5", len(nodes))
	}
	for _, v := range nodes {
		if r, _ := s.RC(v); r != 2 {
			t.Errorf("node %d off row 2", v)
		}
	}
}

// Theorem 3's key geometric fact: every turned flow has a shortest path
// through one of the four region corners.
func TestTurnedFlowsPassACorner(t *testing.T) {
	s := mustScenario(t, 9, 1)
	corners := s.Corners()
	sides := []BoundarySide{West, East, North, South}
	for _, es := range sides {
		for _, xs := range sides {
			if es == xs || es.horizontal() == xs.horizontal() {
				continue
			}
			for ei := 0; ei < 9; ei++ {
				for xi := 0; xi < 9; xi++ {
					f := gf(es, ei, xs, xi, 1)
					if s.Validate(f) != nil {
						continue
					}
					nodes, err := s.ShortestPathNodes(f)
					if err != nil {
						t.Fatal(err)
					}
					found := false
					for _, v := range nodes {
						for _, c := range corners {
							if v == c {
								found = true
							}
						}
					}
					if !found {
						t.Fatalf("turned flow %v->%v (%d,%d) misses all corners",
							es, xs, ei, xi)
					}
				}
			}
		}
	}
}

// FixedPathNodes is a valid shortest path in the grid graph.
func TestFixedPathNodes(t *testing.T) {
	s := mustScenario(t, 7, 10)
	rng := rand.New(rand.NewSource(9))
	sides := []BoundarySide{West, East, North, South}
	for trial := 0; trial < 40; trial++ {
		f := gf(sides[rng.Intn(4)], rng.Intn(7), sides[rng.Intn(4)], rng.Intn(7), 1)
		if s.Validate(f) != nil {
			continue
		}
		path, err := s.FixedPathNodes(f)
		if err != nil {
			t.Fatal(err)
		}
		l, err := s.Graph().PathLength(path)
		if err != nil {
			t.Fatalf("fixed path invalid: %v", err)
		}
		entry, exit, err := s.Endpoints(f)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Graph().Point(entry).Manhattan(s.Graph().Point(exit))
		if math.Abs(l-want) > 1e-9 {
			t.Fatalf("fixed path length %v, want %v", l, want)
		}
	}
}

func TestProblemConstruction(t *testing.T) {
	s := mustScenario(t, 5, 1)
	flows := []GridFlow{
		gf(West, 2, East, 2, 10),
		gf(West, 3, South, 1, 5),
	}
	p, err := s.Problem(flows, utility.Threshold{D: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shop != s.Shop() || p.K != 3 || p.Flows.Len() != 2 {
		t.Errorf("problem = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("problem invalid: %v", err)
	}
	// Invalid flow propagates.
	if _, err := s.Problem([]GridFlow{gf(West, 1, West, 2, 1)}, utility.Threshold{D: 4}, 1); !errors.Is(err, ErrBadSide) {
		t.Errorf("bad flow: %v", err)
	}
	// Empty flow set.
	if _, err := s.Problem(nil, utility.Threshold{D: 4}, 1); err == nil {
		t.Error("empty flows accepted")
	}
}
