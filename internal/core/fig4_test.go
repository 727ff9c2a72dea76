package core

import (
	"math"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// fig4 reconstructs the paper's Fig. 4 worked example. Unit-length two-way
// streets: V1-V2, V2-V3, V3-V4, V4-V1, V3-V5, V5-V6. The shop is at V1.
// Flows (alpha = 1): T[2,5] = 6 via V2-V3-V5, T[4,3] = 6 via V4-V3,
// T[3,5] = 3 via V3-V5, T[5,6] = 2 via V5-V6.
//
// Node IDs are zero-based: V1 = 0, ..., V6 = 5.
func fig4(t testing.TB) (*graph.Graph, *flow.Set) {
	t.Helper()
	b := graph.NewBuilder(6, 12)
	for i := 0; i < 6; i++ {
		b.AddNode(geo.Pt(float64(i), 0)) // coordinates are irrelevant here
	}
	streets := [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {2, 4}, {4, 5}}
	for _, s := range streets {
		if err := b.AddStreet(s[0], s[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id string, vol float64, path ...graph.NodeID) flow.Flow {
		f, err := flow.New(id, path, vol, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fs, err := flow.NewSet([]flow.Flow{
		mk("T2,5", 6, 1, 2, 4),
		mk("T4,3", 6, 3, 2),
		mk("T3,5", 3, 2, 4),
		mk("T5,6", 2, 4, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.ValidateAll(g); err != nil {
		t.Fatal(err)
	}
	return g, fs
}

func fig4Problem(t testing.TB, u utility.Function) *Problem {
	g, fs := fig4(t)
	return &Problem{Graph: g, Shop: 0, Flows: fs, Utility: u, K: 2}
}

// The detour distances asserted throughout Section III's walkthrough.
func TestFig4Detours(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flow int
		node graph.NodeID
		want float64
	}{
		{0, 2, 4}, // T2,5 at V3
		{0, 1, 2}, // T2,5 at V2
		{0, 4, 6}, // T2,5 at V5 (end of route)
		{1, 2, 4}, // T4,3 at V3 (destination)
		{1, 3, 2}, // T4,3 at V4
		{2, 2, 4}, // T3,5 at V3
		{2, 4, 6}, // T3,5 at V5
		{3, 4, 6}, // T5,6 at V5
		{3, 5, 8}, // T5,6 at V6 — beyond D, per the paper's note
	}
	for _, c := range cases {
		if got := e.Detour(c.flow, c.node); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("detour(flow %d, V%d) = %v, want %v", c.flow, c.node+1, got, c.want)
		}
	}
	// Off-path node yields +Inf.
	if !math.IsInf(e.Detour(3, 0), 1) {
		t.Error("off-path detour should be +Inf")
	}
}

// Threshold utility: Algorithm 1 places V3 first (covers 15 drivers), then
// V5 (covers T5,6), exactly as the paper walks through.
func TestFig4Algorithm1Threshold(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Threshold{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Algorithm1(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 2 || got.Nodes[0] != 2 || got.Nodes[1] != 4 {
		t.Fatalf("placement = %v, want [V3 V5] = [2 4]", got.Nodes)
	}
	if got.StepGains[0] != 15 || got.StepGains[1] != 2 {
		t.Errorf("step gains = %v, want [15 2]", got.StepGains)
	}
	if got.Attracted != 17 {
		t.Errorf("attracted = %v, want 17", got.Attracted)
	}
}

// Decreasing utility: the placement {V3, V5} attracts 5 drivers and
// {V2, V4} attracts 8, per the paper's arithmetic.
func TestFig4EvaluateLinear(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Evaluate([]graph.NodeID{2, 4}); math.Abs(got-5) > 1e-9 {
		t.Errorf("w({V3,V5}) = %v, want 5", got)
	}
	if got := e.Evaluate([]graph.NodeID{1, 3}); math.Abs(got-8) > 1e-9 {
		t.Errorf("w({V2,V4}) = %v, want 8", got)
	}
	if got := e.Evaluate(nil); got != 0 {
		t.Errorf("w({}) = %v, want 0", got)
	}
}

// The naive greedy of Section III-C's example places V3 then V2 for a total
// of 7 attracted drivers. Both Algorithm 2 and the combined greedy
// reproduce that trajectory on this instance (the optimum, 8, requires
// anticipating the overlap).
func TestFig4GreedyTrajectories(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	for _, solver := range []struct {
		name   string
		run    func(*Engine) (*Placement, error)
		strict bool // placement node order is pinned (no tie ambiguity)
	}{
		{"Algorithm2", Algorithm2, true},
		{"GreedyCombined", GreedyCombined, true},
		{"GreedyLazy", GreedyLazy, false}, // V2/V4 tie may break either way
	} {
		t.Run(solver.name, func(t *testing.T) {
			got, err := solver.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if solver.strict &&
				(len(got.Nodes) != 2 || got.Nodes[0] != 2 || got.Nodes[1] != 1) {
				t.Fatalf("placement = %v, want [V3 V2] = [2 1]", got.Nodes)
			}
			if math.Abs(got.Attracted-7) > 1e-9 {
				t.Errorf("attracted = %v, want 7", got.Attracted)
			}
		})
	}
}

// Algorithm 2's first step must come from the uncovered candidate and its
// second from the covered candidate (the overlap improvement).
func TestFig4Algorithm2StepKinds(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Algorithm2(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.StepKinds) != 2 ||
		got.StepKinds[0] != StepKindUncovered ||
		got.StepKinds[1] != StepKindCovered {
		t.Errorf("step kinds = %v", got.StepKinds)
	}
	if math.Abs(got.StepGains[0]-5) > 1e-9 || math.Abs(got.StepGains[1]-2) > 1e-9 {
		t.Errorf("step gains = %v, want [5 2]", got.StepGains)
	}
}

// With the threshold utility Algorithm 2 reduces to Algorithm 1, as stated
// after Theorem 2.
func TestFig4Algorithm2ReducesToAlgorithm1(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Threshold{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := Algorithm1(e)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Algorithm2(e)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Attracted != a2.Attracted {
		t.Errorf("attracted: alg1 %v vs alg2 %v", a1.Attracted, a2.Attracted)
	}
}

// Algorithm 1's coverage rule is not detourState's. Under Threshold{D: 6}
// flow T5,6 reaches V6 at detour 8: finite, but beyond D, so the visit
// gains nothing. Algorithm 1 leaves the flow uncovered and still counts
// its 2 drivers at V5 (detour 6) as uncovered gain; detourState marks the
// flow covered at the first finite detour and files the same 2 drivers
// under its covered component. Selecting Algorithm 1's winner by
// detourState's uncovered part would therefore see 9 at V5, not 11.
func TestAlgorithm1CoverageRuleBeyondD(t *testing.T) {
	e, err := NewEngine(fig4Problem(t, utility.Threshold{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	const v5, v6 = 4, 5
	cover := &coverState{covered: make([]bool, e.p.Flows.Len())}
	detour := e.newDetourState()
	for _, st := range []stepState{cover, detour} {
		if u, c := st.marginalGain(e, v6); u != 0 || c != 0 {
			t.Fatalf("%T: V6 gains (%v, %v), want (0, 0): the only visit is beyond D", st, u, c)
		}
		st.place(e, v6)
	}
	if u, c := cover.marginalGain(e, v5); u != 11 || c != 0 {
		t.Errorf("coverState at V5 after V6 = (%v, %v), want (11, 0)", u, c)
	}
	if u, c := detour.marginalGain(e, v5); u != 9 || c != 2 {
		t.Errorf("detourState at V5 after V6 = (%v, %v), want (9, 2)", u, c)
	}
}
