package model_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/model"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

const tol = 1e-9

func TestProbabilisticValidate(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.0000001, 2, math.NaN(), math.Inf(1)} {
		if err := (model.Probabilistic{Reception: bad}).Validate(); err == nil {
			t.Errorf("reception %v: want error", bad)
		}
	}
	for _, ok := range []float64{1e-9, 0.5, 1} {
		if err := (model.Probabilistic{Reception: ok}).Validate(); err != nil {
			t.Errorf("reception %v: %v", ok, err)
		}
	}
}

func TestProbabilisticIdentity(t *testing.T) {
	m := model.Probabilistic{Reception: 1}
	if m.Name() != "probabilistic" {
		t.Errorf("name = %q", m.Name())
	}
	if !strings.Contains(m.Params(), "reception=1") {
		t.Errorf("params = %q", m.Params())
	}
	if m.Compose() != core.ComposeIndependent {
		t.Errorf("compose = %v, want ComposeIndependent", m.Compose())
	}
}

func TestPrepareRejectsInvalid(t *testing.T) {
	p := testutil.Fig4Problem(t, utility.Linear{D: 6})
	if _, err := (model.Probabilistic{Reception: 0}).Prepare(p); err == nil {
		t.Error("probabilistic: want validation error")
	}
	if _, err := (model.Resistance{Scale: -1}).Prepare(p); err == nil {
		t.Error("resistance: want validation error")
	}
	if _, err := (model.Capacity{}).Prepare(p); err == nil {
		t.Error("capacity: want validation error")
	}
}

// probOracle recomputes the probabilistic objective from first principles:
// sum over flows of Volume * (1 - prod over placed RAPs of
// (1 - reception*Prob(detour, alpha))). The engine's survival-product
// incremental state must agree with this from-scratch composition.
func probOracle(e *core.Engine, reception float64, nodes []graph.NodeID) float64 {
	p := e.Problem()
	var total float64
	for f := 0; f < p.Flows.Len(); f++ {
		fl := p.Flows.At(f)
		survive := 1.0
		for _, v := range nodes {
			d := e.Detour(f, v)
			if math.IsInf(d, 1) {
				continue // flow does not pass v
			}
			survive *= 1 - reception*p.Utility.Prob(d, fl.Alpha)
		}
		total += fl.Volume * (1 - survive)
	}
	return total
}

func TestProbabilisticClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		reception := 0.2 + 0.8*rng.Float64()
		p := testutil.RandomProblem(t, rng, 14, 9, 3, utility.Linear{D: 60})
		p.Model = model.Probabilistic{Reception: reception}
		e, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		cands := e.Candidates()
		for probe := 0; probe < 10; probe++ {
			nodes := samplePlacement(rng, cands, 1+rng.Intn(4))
			got := e.Evaluate(nodes)
			want := probOracle(e, reception, nodes)
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("trial %d: Evaluate(%v) = %v, closed form %v", trial, nodes, got, want)
			}
		}
	}
}

// TestProbabilisticSingleRAPMatchesPaper: with one RAP the independent
// composition has a single factor, so at full reception the value must
// equal the paper's additive objective.
func TestProbabilisticSingleRAPMatchesPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := testutil.RandomProblem(t, rng, 14, 9, 1, utility.Linear{D: 60})
	base, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pm := *p
	pm.Model = model.Probabilistic{Reception: 1}
	em, err := core.NewEngine(&pm)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range base.Candidates() {
		one := []graph.NodeID{v}
		if b, m := base.Evaluate(one), em.Evaluate(one); math.Abs(b-m) > tol*(1+math.Abs(b)) {
			t.Fatalf("node %d: paper %v vs probabilistic %v", v, b, m)
		}
	}
}

// TestProbabilisticMonotoneSubmodular probes the submodularity contract
// directly: for random S ⊆ T and v ∉ T, the marginal gain of v must not
// grow with the context (and must never be negative).
func TestProbabilisticMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := testutil.RandomProblem(t, rng, 16, 10, 4, utility.Linear{D: 60})
	p.Model = model.Probabilistic{Reception: 0.8}
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	cands := e.Candidates()
	for probe := 0; probe < 60; probe++ {
		all := samplePlacement(rng, cands, 2+rng.Intn(4))
		v := all[len(all)-1]
		tSet := all[:len(all)-1]
		sSet := tSet[:rng.Intn(len(tSet))]
		gainS := e.Evaluate(append(append([]graph.NodeID{}, sSet...), v)) - e.Evaluate(sSet)
		gainT := e.Evaluate(append(append([]graph.NodeID{}, tSet...), v)) - e.Evaluate(tSet)
		if gainT < -tol {
			t.Fatalf("probe %d: negative marginal %v (monotonicity broken)", probe, gainT)
		}
		if gainT > gainS+tol {
			t.Fatalf("probe %d: marginal grew with context: f(S+v)-f(S)=%v < f(T+v)-f(T)=%v",
				probe, gainS, gainT)
		}
	}
}

// samplePlacement draws n distinct candidates.
func samplePlacement(rng *rand.Rand, cands []graph.NodeID, n int) []graph.NodeID {
	perm := rng.Perm(len(cands))
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = cands[perm[i]]
	}
	return out
}
