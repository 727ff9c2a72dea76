package roadside

import (
	"math"
	"math/rand"
	"testing"
)

// buildFig4 assembles the paper's Fig. 4 example through the public API.
func buildFig4(t testing.TB, u UtilityFunction) *Engine {
	t.Helper()
	b := NewGraphBuilder(6, 12)
	for i := 0; i < 6; i++ {
		b.AddNode(Pt(float64(i), 0))
	}
	for _, s := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}, {4, 5}} {
		if err := b.AddStreet(s[0], s[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, vol float64, path ...NodeID) Flow {
		f, err := NewFlow(id, path, vol, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fs, err := NewFlowSet([]Flow{
		mk("T2,5", 6, 1, 2, 4),
		mk("T4,3", 6, 3, 2),
		mk("T3,5", 3, 2, 4),
		mk("T5,6", 2, 4, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(&Problem{Graph: g, Shop: 0, Flows: fs, Utility: u, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPublicAPIFig4(t *testing.T) {
	e := buildFig4(t, ThresholdUtility{D: 6})
	pl, err := Algorithm1(e)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Attracted != 17 {
		t.Errorf("Algorithm1 attracted %v, want 17", pl.Attracted)
	}
	eLin := buildFig4(t, LinearUtility{D: 6})
	pl2, err := Algorithm2(eLin)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl2.Attracted-7) > 1e-9 {
		t.Errorf("Algorithm2 attracted %v, want 7", pl2.Attracted)
	}
	best, err := Exhaustive(eLin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best.Attracted-8) > 1e-9 {
		t.Errorf("Exhaustive attracted %v, want 8", best.Attracted)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	e := buildFig4(t, LinearUtility{D: 6})
	rng := rand.New(rand.NewSource(1))
	for name, solve := range map[string]func() (*Placement, error){
		"maxcardinality": func() (*Placement, error) { return MaxCardinality(e) },
		"maxvehicles":    func() (*Placement, error) { return MaxVehicles(e) },
		"maxcustomers":   func() (*Placement, error) { return MaxCustomers(e) },
		"random":         func() (*Placement, error) { return RandomPlacement(e, rng) },
		"combined":       func() (*Placement, error) { return GreedyCombined(e) },
		"lazy":           func() (*Placement, error) { return GreedyLazy(e) },
	} {
		pl, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pl.Nodes) != 2 {
			t.Errorf("%s placed %d nodes", name, len(pl.Nodes))
		}
	}
}

func TestPublicAPIManhattan(t *testing.T) {
	sc, err := NewGridScenario(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	flows := []GridFlow{
		{ID: "s", EntrySide: West, EntryIndex: 3, ExitSide: East, ExitIndex: 3, Volume: 100, Alpha: 1},
		{ID: "t", EntrySide: West, EntryIndex: 2, ExitSide: South, ExitIndex: 4, Volume: 50, Alpha: 1},
	}
	pl, err := Algorithm3(sc, flows, ThresholdUtility{D: sc.Side()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Nodes) != 5 {
		t.Fatalf("placed %d", len(pl.Nodes))
	}
	// k=5 > 4: both flows are covered under the threshold utility (corner
	// stage covers the turned flow, greedy stage the straight one).
	if pl.Attracted < 150-1e-9 {
		t.Errorf("attracted %v, want 150", pl.Attracted)
	}
	pl4, err := Algorithm4(sc, flows, LinearUtility{D: sc.Side()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pl4.Attracted <= 0 {
		t.Errorf("Algorithm4 attracted %v", pl4.Attracted)
	}
	if sc.Classify(flows[0]) != StraightFlow || sc.Classify(flows[1]) != TurnedFlow {
		t.Error("classification wrong via public API")
	}
}

func TestPublicAPISubstrates(t *testing.T) {
	city, err := Seattle(5)
	if err != nil {
		t.Fatal(err)
	}
	if city.Graph.NumNodes() == 0 {
		t.Fatal("empty city")
	}
	if _, err := UtilityByName("linear", 1000); err != nil {
		t.Error(err)
	}
	proj, err := NewProjection(LonLat{Lon: -6.26, Lat: 53.35})
	if err != nil {
		t.Fatal(err)
	}
	if proj.Origin().Lat != 53.35 {
		t.Error("projection origin wrong")
	}
}

func TestPublicAPIFigureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure run")
	}
	results, err := Figure(12, FigureOptions{Quick: true, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("fig12 produced %d results", len(results))
	}
	for _, r := range results {
		if len(r.Series) == 0 || r.Table() == "" {
			t.Errorf("%s empty", r.Name)
		}
	}
}
