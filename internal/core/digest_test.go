package core

import (
	"math"
	"strings"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// TestProblemDigestStability pins the digest contract: equal problems hash
// equally, K never enters the digest, and every engine-relevant knob does.
func TestProblemDigestStability(t *testing.T) {
	g, flows := fig4(t)
	base := &Problem{
		Graph:   g,
		Shop:    4,
		Flows:   flows,
		Utility: utility.Linear{D: 10},
		K:       2,
	}
	d1, err := ProblemDigest(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d1, DigestVersion+"-") {
		t.Fatalf("digest %q lacks version prefix %q", d1, DigestVersion)
	}
	d2, err := ProblemDigest(base)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not deterministic: %q vs %q", d1, d2)
	}

	// K is excluded: the same engine answers every budget.
	bumped := *base
	bumped.K = 5
	dk, err := ProblemDigest(&bumped)
	if err != nil {
		t.Fatal(err)
	}
	if dk != d1 {
		t.Fatalf("digest depends on K: %q vs %q", dk, d1)
	}

	// Every arena-relevant knob is included.
	variants := map[string]func(p *Problem){
		"shop":       func(p *Problem) { p.Shop = 2 },
		"utility":    func(p *Problem) { p.Utility = utility.Sqrt{D: 10} },
		"threshold":  func(p *Problem) { p.Utility = utility.Linear{D: 11} },
		"extraShops": func(p *Problem) { p.ExtraShops = []graph.NodeID{1} },
		"candidates": func(p *Problem) { p.Candidates = []graph.NodeID{0, 1, 2} },
	}
	for name, mutate := range variants {
		v := *base
		mutate(&v)
		dv, err := ProblemDigest(&v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dv == d1 {
			t.Errorf("digest ignores %s", name)
		}
	}

	if _, err := ProblemDigest(&Problem{}); err == nil {
		t.Error("digest of a nil-field problem should fail")
	}
}

// TestProblemDigestRejectsNaNCoordinate: a NaN or infinite node
// coordinate has no interchange encoding, so the problem has no digest.
func TestProblemDigestRejectsNaNCoordinate(t *testing.T) {
	f, err := flow.New("a", []graph.NodeID{0, 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	flows, err := flow.NewSet([]flow.Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pt   geo.Point
	}{
		{"NaN x", geo.Pt(math.NaN(), 1)},
		{"NaN y", geo.Pt(1, math.NaN())},
		{"+Inf x", geo.Pt(math.Inf(1), 1)},
		{"-Inf x", geo.Pt(math.Inf(-1), 1)},
		{"+Inf y", geo.Pt(1, math.Inf(1))},
		{"-Inf y", geo.Pt(1, math.Inf(-1))},
	} {
		b := graph.NewBuilder(2, 2)
		b.AddNode(geo.Pt(0, 0))
		b.AddNode(tc.pt)
		if err := b.AddStreet(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Graph: g, Shop: 1, Flows: flows, Utility: utility.Linear{D: 10}, K: 1}
		if d, err := ProblemDigest(p); err == nil {
			t.Errorf("%s: digest %q of a non-finite-coordinate problem, want an error", tc.name, d)
		}
	}
}

// TestWithBudget verifies the shared-arena budget override: the derived
// engine solves at the new K, shares arenas bit-for-bit, and leaves the
// receiver untouched.
func TestWithBudget(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 10})
	p.K = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := e.WithBudget(3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Problem().K != 1 || e3.Problem().K != 3 {
		t.Fatalf("budgets: receiver K=%d derived K=%d", e.Problem().K, e3.Problem().K)
	}
	if e.Fingerprint() != e3.Fingerprint() {
		t.Fatal("WithBudget must share the preprocessed arenas")
	}

	// A fresh engine built at K=3 must match the derived one bit-for-bit.
	p3 := *p
	p3.K = 3
	fresh, err := NewEngine(&p3)
	if err != nil {
		t.Fatal(err)
	}
	for name, solve := range map[string]func(*Engine) (*Placement, error){
		"algorithm1": Algorithm1, "algorithm2": Algorithm2,
		"combined": GreedyCombined, "lazy": GreedyLazy,
	} {
		got, err := solve(e3)
		if err != nil {
			t.Fatalf("%s derived: %v", name, err)
		}
		want, err := solve(fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		if err := SamePlacement(want, got); err != nil {
			t.Fatalf("%s derived vs fresh: %v", name, err)
		}
	}

	if same, err := e.WithBudget(1); err != nil || same != e {
		t.Errorf("WithBudget(current K) should return the receiver, got %p err %v", same, err)
	}
	if _, err := e.WithBudget(0); err == nil {
		t.Error("WithBudget(0) should fail")
	}
}

// TestArenaBytes sanity-checks the cache-budget estimate: positive, and
// exactly the sum of the arena element sizes.
func TestArenaBytes(t *testing.T) {
	p := fig4Problem(t, utility.Linear{D: 10})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for si := range e.shards {
		sh := &e.shards[si]
		want += int64(len(sh.visitOff))*4 + int64(len(sh.visitFlow))*4 +
			int64(len(sh.visitDetour))*8 + int64(len(sh.visitGain))*8 +
			int64(len(sh.flowOff))*4 + int64(len(sh.flowNode))*4 +
			int64(len(sh.flowDetour))*8
	}
	want += int64(len(e.cands)) * 4
	if got := e.ArenaBytes(); got != want || got <= 0 {
		t.Fatalf("ArenaBytes = %d, want %d (> 0)", got, want)
	}
}
