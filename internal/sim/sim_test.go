package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/core"
	"roadside/internal/flow"
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

func TestRunValidation(t *testing.T) {
	e := fig4Engine(t, utility.Linear{D: 6})
	if _, err := Run(e, nil, Config{Days: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero days: %v", err)
	}
	if _, err := Run(e, nil, Config{Days: 1, RadioRangeFeet: -5}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative range: %v", err)
	}
	if _, err := Run(e, []graph.NodeID{99}, Config{Days: 1}); err == nil {
		t.Error("bad placement accepted")
	}
}

// With zero radio range the analytical expectation inside the simulator
// equals the engine's Evaluate exactly.
func TestExpectedMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for trial := 0; trial < 10; trial++ {
		p := testutil.RandomProblem(t, rng, 30, 15, 4, utility.Linear{D: 100})
		e, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := core.GreedyCombined(e)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(e, pl.Nodes, Config{Days: 1, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Expected-pl.Attracted) > 1e-6 {
			t.Fatalf("trial %d: sim expectation %v != Evaluate %v",
				trial, res.Expected, pl.Attracted)
		}
	}
}

// The simulated mean converges to the expectation over many days.
func TestSimulationConverges(t *testing.T) {
	e := fig4Engine(t, utility.Linear{D: 6})
	// Placement {V2, V4}: expected 8 customers/day.
	res, err := Run(e, []graph.NodeID{1, 3}, Config{Days: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Expected-8) > 1e-9 {
		t.Fatalf("expected = %v, want 8", res.Expected)
	}
	// 12 Bernoulli(2/3) trials/day; std ~ 1.6; 3000 days -> CI ~ 0.06.
	if math.Abs(res.MeanCustomers-8) > 0.25 {
		t.Errorf("simulated mean %v too far from 8", res.MeanCustomers)
	}
	if res.StdCustomers <= 0 {
		t.Error("no day-to-day variance in a Bernoulli process")
	}
	// All 12 covered vehicles hear an ad; T3,5 (3) and T5,6 (2) do not.
	wantContact := 12.0 / 17.0
	if math.Abs(res.ContactRate-wantContact) > 1e-9 {
		t.Errorf("contact rate %v, want %v", res.ContactRate, wantContact)
	}
	// Every detour on this placement is exactly 2 blocks.
	if math.Abs(res.MeanExtraDistance-2) > 1e-9 {
		t.Errorf("extra distance %v, want 2", res.MeanExtraDistance)
	}
}

// Zero radio range must equal Evaluate even for routes that are NOT
// shortest paths (where detours are not monotone along the route).
func TestExpectedMatchesEvaluateNonShortestRoutes(t *testing.T) {
	g, _ := testutil.Fig4(t)
	// A wandering route V2 -> V3 -> V4 -> V1 -> V2 -> V3 -> V5 (far from
	// shortest for T2,5's od pair).
	f, err := flow.New("wander", []graph.NodeID{1, 2, 3, 0, 1, 2, 4}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet([]flow.Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(&core.Problem{
		Graph: g, Shop: 0, Flows: fs, Utility: utility.Linear{D: 6}, K: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, placement := range [][]graph.NodeID{{2}, {1, 4}, {3, 4}, {0, 5}} {
		res, err := Run(e, placement, Config{Days: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Expected-e.Evaluate(placement)) > 1e-9 {
			t.Fatalf("placement %v: sim %v != Evaluate %v",
				placement, res.Expected, e.Evaluate(placement))
		}
	}
}

// Radio range monotonicity: growing the range can only add contacts, so
// both the contact rate and the expectation are non-decreasing in range.
func TestRadioRangeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	p := testutil.RandomProblem(t, rng, 40, 20, 5, utility.Linear{D: 200})
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	prevExpected, prevContact := -1.0, -1.0
	for _, r := range []float64{0, 5, 20, 50, 150} {
		res, err := Run(e, pl.Nodes, Config{Days: 3, Seed: 7, RadioRangeFeet: r})
		if err != nil {
			t.Fatal(err)
		}
		if res.Expected < prevExpected-1e-9 {
			t.Fatalf("range %v: expectation decreased (%v -> %v)",
				r, prevExpected, res.Expected)
		}
		if res.ContactRate < prevContact-1e-9 {
			t.Fatalf("range %v: contact rate decreased", r)
		}
		prevExpected, prevContact = res.Expected, res.ContactRate
	}
}

// A positive radio range lets a RAP near (but not on) a route cover it.
func TestRadioRangeCoversNearbyRoutes(t *testing.T) {
	e := fig4Engine(t, utility.Threshold{D: 10})
	// V6 (node 5) is not on T2,5's route (V2-V3-V5) but lies 1 block from
	// V5. With range 1.5 the flow hears it.
	res0, err := Run(e, []graph.NodeID{5}, Config{Days: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Run(e, []graph.NodeID{5}, Config{Days: 1, Seed: 1, RadioRangeFeet: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if res1.ContactRate <= res0.ContactRate {
		t.Errorf("contact rate %v -> %v, want increase", res0.ContactRate, res1.ContactRate)
	}
}

// Poisson daily volumes preserve the mean.
func TestPoissonVolumes(t *testing.T) {
	e := fig4Engine(t, utility.Threshold{D: 6})
	res, err := Run(e, []graph.NodeID{2, 4}, Config{
		Days: 4000, Seed: 11, DailyVolumePoisson: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected 17 (all flows covered at probability 1).
	if math.Abs(res.MeanCustomers-17) > 0.5 {
		t.Errorf("Poisson mean %v, want ~17", res.MeanCustomers)
	}
	if res.StdCustomers < 1 {
		t.Errorf("Poisson std %v suspiciously small", res.StdCustomers)
	}
}

// TestCompare compares the simulated mean with the analytical expectation
// under the same contact model: within 5% over 2000 days, and exactly zero
// for an empty placement.
func TestCompare(t *testing.T) {
	e := fig4Engine(t, utility.Linear{D: 6})
	res, err := Run(e, []graph.NodeID{1, 3}, Config{Days: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if relErr := math.Abs(res.MeanCustomers-res.Expected) / res.Expected; relErr > 0.05 {
		t.Errorf("relative error %v > 5%% (mean %v vs expected %v)",
			relErr, res.MeanCustomers, res.Expected)
	}
	res, err = Run(e, nil, Config{Days: 5, Seed: 3})
	if err != nil || res.Expected != 0 || res.MeanCustomers != 0 {
		t.Errorf("empty placement: %+v, %v", res, err)
	}
}
