package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

// testModel is a minimal in-package ObjectiveModel: the engine plumbing is
// tested here against stub weighers; the real economies live in
// internal/model and are tested there (core must not import model — the
// layering lint enforces the direction).
type testModel struct {
	comp    Composition
	weigher VisitWeigher
	err     error
}

func (m testModel) Name() string   { return "test" }
func (m testModel) Params() string { return "stub" }
func (m testModel) Compose() Composition {
	return m.comp
}
func (m testModel) Prepare(p *Problem) (VisitWeigher, error) {
	return m.weigher, m.err
}

// unitWeigher weighs every visit 1: the model machinery engaged with a
// neutral weight.
type unitWeigher struct{}

func (unitWeigher) Weight(f int, v graph.NodeID) float64 { return 1 }

type constTestWeigher float64

func (w constTestWeigher) Weight(f int, v graph.NodeID) float64 { return float64(w) }

// tableWeigher weighs per node.
type tableWeigher []float64

func (w tableWeigher) Weight(f int, v graph.NodeID) float64 {
	if int(v) >= len(w) {
		return 0
	}
	return w[v]
}

// badWeigher returns an out-of-contract weight at one node.
type badWeigher struct{ at graph.NodeID }

func (w badWeigher) Weight(f int, v graph.NodeID) float64 {
	if v == w.at {
		return math.NaN()
	}
	return 1
}

const objTol = 1e-9

// TestUnitWeightBestMatchesNil: a ComposeBest model with weight 1 must
// reproduce the nil-model objective exactly — same arenas, same
// fingerprint, same values. This pins that the model path's arithmetic
// is the legacy arithmetic when the weight is neutral.
func TestUnitWeightBestMatchesNil(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := randomProblem(t, rng, 40, 20, 3, utility.Linear{D: 50})
	base, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pm := *p
	pm.Model = testModel{comp: ComposeBest, weigher: unitWeigher{}}
	em, err := NewEngine(&pm)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() != em.Fingerprint() {
		t.Fatal("unit-weight ComposeBest arena differs from nil-model arena")
	}
	for probe := 0; probe < 20; probe++ {
		nodes := sampleNodes(rng, base.Candidates(), 1+rng.Intn(3))
		b, m := base.Evaluate(nodes), em.Evaluate(nodes)
		if math.Float64bits(b) != math.Float64bits(m) {
			t.Fatalf("Evaluate(%v): nil %v vs unit-weight model %v", nodes, b, m)
		}
	}
}

// TestModelEngineParallelBitIdentical extends the parallel-build contract
// to model engines: weighted arenas (including the survival bank) must be
// bit-identical across worker counts.
func TestModelEngineParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	weights := make(tableWeigher, 250)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	for _, comp := range []Composition{ComposeBest, ComposeIndependent} {
		p := randomProblem(t, rng, 250, 80, 5, utility.Linear{D: 50})
		p.Model = testModel{comp: comp, weigher: weights}
		serial, err := newEngine(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			par, err := newEngine(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertEnginesEqual(t, serial, par, 250, workers)
			if serial.Fingerprint() != par.Fingerprint() {
				t.Fatalf("comp=%v workers=%d: fingerprint drift", comp, workers)
			}
		}
	}
}

// TestIndependentComposition checks the survival-product state against a
// from-scratch computation over Detour, for a fractional constant weight.
func TestIndependentComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	p := randomProblem(t, rng, 30, 15, 4, utility.Linear{D: 50})
	p.Model = testModel{comp: ComposeIndependent, weigher: constTestWeigher(0.6)}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 30; probe++ {
		nodes := sampleNodes(rng, e.Candidates(), 1+rng.Intn(4))
		var want float64
		for f := 0; f < p.Flows.Len(); f++ {
			fl := p.Flows.At(f)
			survive := 1.0
			for _, v := range nodes {
				if d := e.Detour(f, v); !math.IsInf(d, 1) {
					survive *= 1 - 0.6*p.Utility.Prob(d, fl.Alpha)
				}
			}
			want += fl.Volume * (1 - survive)
		}
		if got := e.Evaluate(nodes); math.Abs(got-want) > objTol*(1+math.Abs(want)) {
			t.Fatalf("probe %d: Evaluate(%v) = %v, closed form %v", probe, nodes, got, want)
		}
	}
}

// TestWeightedBestMonotoneSubmodular guards the max-gain banking rule:
// under per-node weights the nearest RAP is not necessarily the best one,
// and banking by minimum detour would produce negative marginals. Random
// weights, random chains — marginals must stay non-negative and
// diminishing.
func TestWeightedBestMonotoneSubmodular(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	weights := make(tableWeigher, 30)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	p := randomProblem(t, rng, 30, 15, 4, utility.Linear{D: 50})
	p.Model = testModel{comp: ComposeBest, weigher: weights}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	cands := e.Candidates()
	for probe := 0; probe < 60; probe++ {
		all := sampleNodes(rng, cands, 2+rng.Intn(4))
		v := all[len(all)-1]
		tSet := all[:len(all)-1]
		sSet := tSet[:rng.Intn(len(tSet))]
		gainS := e.Evaluate(append(append([]graph.NodeID{}, sSet...), v)) - e.Evaluate(sSet)
		gainT := e.Evaluate(append(append([]graph.NodeID{}, tSet...), v)) - e.Evaluate(tSet)
		if gainT < -objTol {
			t.Fatalf("probe %d: negative marginal %v", probe, gainT)
		}
		if gainT > gainS+objTol {
			t.Fatalf("probe %d: marginal grew with context: %v -> %v", probe, gainS, gainT)
		}
	}
	// The incremental state must agree with Evaluate along greedy runs.
	got, err := GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	if re := e.Evaluate(got.Nodes); math.Abs(re-got.Attracted) > objTol*(1+math.Abs(re)) {
		t.Fatalf("greedy value %v != re-evaluated %v", got.Attracted, re)
	}
}

// TestStandaloneGainSingleNode: for every composition, StandaloneGain must
// equal Evaluate of the singleton (the exhaustive search's bound and the
// lazy heap's seed both rely on it).
func TestStandaloneGainSingleNode(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	weights := make(tableWeigher, 30)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	for _, comp := range []Composition{ComposeBest, ComposeIndependent} {
		p := randomProblem(t, rng, 30, 15, 3, utility.Linear{D: 50})
		p.Model = testModel{comp: comp, weigher: weights}
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range e.Candidates() {
			sg := e.StandaloneGain(v)
			ev := e.Evaluate([]graph.NodeID{v})
			if math.Abs(sg-ev) > objTol*(1+math.Abs(ev)) {
				t.Fatalf("comp=%v node %d: StandaloneGain %v != Evaluate %v", comp, v, sg, ev)
			}
		}
	}
}

// TestModelDigest: the digest must separate model engines from nil-model
// engines and distinguish model parameters, while nil-model digests stay
// on the pre-model byte format (same problem, same digest).
func TestModelDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	p := randomProblem(t, rng, 20, 10, 2, utility.Linear{D: 50})
	base, err := ProblemDigest(p)
	if err != nil {
		t.Fatal(err)
	}
	pm := *p
	pm.Model = testModel{comp: ComposeBest, weigher: unitWeigher{}}
	withModel, err := ProblemDigest(&pm)
	if err != nil {
		t.Fatal(err)
	}
	if base == withModel {
		t.Fatal("digest ignores the model")
	}
	if again, err := ProblemDigest(&pm); err != nil || withModel != again {
		t.Fatalf("model digest unstable (err %v)", err)
	}
	if again, err := ProblemDigest(p); err != nil || base != again {
		t.Fatalf("nil-model digest unstable (err %v)", err)
	}
}

// TestModelDeltaRejected: the delta layer's per-flow updates assume the
// additive objective; model engines must refuse them loudly rather than
// corrupt banks.
func TestModelDeltaRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	p := randomProblem(t, rng, 20, 10, 2, utility.Linear{D: 50})
	p.Model = testModel{comp: ComposeIndependent, weigher: unitWeigher{}}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	up := []FlowUpdate{{Flow: 0, Volume: 5}}
	if _, _, err := e.ApplyCopy(up); !errors.Is(err, ErrModelUpdate) {
		t.Errorf("ApplyCopy: err = %v, want ErrModelUpdate", err)
	}
}

// TestModelErrors: Prepare failures and out-of-contract weights surface as
// engine construction errors, never as quiet NaN arenas.
func TestModelErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	p := randomProblem(t, rng, 20, 10, 2, utility.Linear{D: 50})

	boom := errors.New("boom")
	pe := *p
	pe.Model = testModel{comp: ComposeBest, err: boom}
	if _, err := NewEngine(&pe); !errors.Is(err, boom) {
		t.Errorf("Prepare error: got %v, want boom", err)
	}

	pn := *p
	pn.Model = testModel{comp: ComposeBest, weigher: nil}
	if _, err := NewEngine(&pn); err == nil {
		t.Error("nil weigher: want error")
	}

	pb := *p
	pb.Model = testModel{comp: ComposeBest, weigher: badWeigher{at: p.Shop}}
	if _, err := NewEngine(&pb); err == nil {
		t.Error("NaN weight: want error")
	}

	pc := *p
	pc.Model = testModel{comp: Composition(99), weigher: unitWeigher{}}
	if _, err := NewEngine(&pc); err == nil {
		t.Error("unknown composition: want error")
	}
}

// TestWithBudgetCarriesModel: budget-restricted engine copies keep the
// model semantics (BudgetedGreedy sweeps rely on this).
func TestWithBudgetCarriesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	p := randomProblem(t, rng, 25, 12, 4, utility.Linear{D: 50})
	p.Model = testModel{comp: ComposeIndependent, weigher: constTestWeigher(0.5)}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := e.WithBudget(2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := sampleNodes(rng, e.Candidates(), 2)
	if a, b := e.Evaluate(nodes), e2.Evaluate(nodes); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("WithBudget dropped model semantics: %v vs %v", a, b)
	}
}

func sampleNodes(rng *rand.Rand, cands []graph.NodeID, n int) []graph.NodeID {
	perm := rng.Perm(len(cands))
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = cands[perm[i]]
	}
	return out
}
