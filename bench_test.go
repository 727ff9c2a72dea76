package roadside

import (
	"math/rand"
	"sync"
	"testing"

	"roadside/internal/experiment"
	"roadside/internal/manhattan"
)

// The figure benchmarks regenerate the paper's evaluation figures (there
// are no numeric tables in the paper; Figs. 10-13 are its entire
// quantitative evaluation). Each iteration performs a full reduced-size
// figure run — substrate synthesis, trials, and statistics — so the
// reported time is the end-to-end cost of reproducing that figure. Use
// cmd/figures for full-scale runs with publication-size trial counts.

func benchFigure(b *testing.B, number int) {
	b.Helper()
	opts := experiment.FigureOptions{Seed: 2015, Quick: true, Trials: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiment.Figure(number, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkFig10 regenerates Fig. 10: Dublin, three utility functions.
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10) }

// BenchmarkFig11 regenerates Fig. 11: Dublin, shop locations x D sweep.
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11) }

// BenchmarkFig12 regenerates Fig. 12: Seattle, general scenario.
func BenchmarkFig12(b *testing.B) { benchFigure(b, 12) }

// BenchmarkFig13 regenerates Fig. 13: Seattle, Manhattan grid scenario.
func BenchmarkFig13(b *testing.B) { benchFigure(b, 13) }

// ---- Solver micro-benchmarks on a fixed Dublin-scale instance ----

// The Dublin fixture is expensive (city synthesis plus engine
// preprocessing), and the engine is immutable once built, so the problem is
// cached per generator seed and the engine per problem digest — the same
// content-addressed key the serving cache uses, so two seeds that happen to
// synthesize identical problems share one engine.
var (
	benchFixtureMu sync.Mutex
	benchProblems  = map[int64]*Problem{}
	benchEngines   = map[string]*Engine{}
)

func dublinProblem(b *testing.B, seed int64) *Problem {
	b.Helper()
	benchFixtureMu.Lock()
	defer benchFixtureMu.Unlock()
	if p, ok := benchProblems[seed]; ok {
		return p
	}
	city, err := Dublin(seed)
	if err != nil {
		b.Fatal(err)
	}
	routes, err := GenerateRoutes(city, DefaultDemand(), seed)
	if err != nil {
		b.Fatal(err)
	}
	flowList, err := RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := NewFlowSet(flowList)
	if err != nil {
		b.Fatal(err)
	}
	cls, err := ClassifyIntersections(flows, city.Graph.NumNodes())
	if err != nil {
		b.Fatal(err)
	}
	p := &Problem{
		Graph:   city.Graph,
		Shop:    cls.Nodes(CityClass)[0],
		Flows:   flows,
		Utility: LinearUtility{D: 20_000},
		K:       10,
	}
	benchProblems[seed] = p
	return p
}

func dublinEngine(b *testing.B, seed int64) *Engine {
	b.Helper()
	p := dublinProblem(b, seed)
	key, err := ProblemDigest(p)
	if err != nil {
		b.Fatal(err)
	}
	benchFixtureMu.Lock()
	defer benchFixtureMu.Unlock()
	if e, ok := benchEngines[key]; ok {
		return e
	}
	e, err := NewEngine(p)
	if err != nil {
		b.Fatal(err)
	}
	benchEngines[key] = e
	return e
}

// BenchmarkEngineConstruction measures the detour precomputation (the
// paper's O(|V|^3) term, implemented as parallel per-destination Dijkstra).
func BenchmarkEngineConstruction(b *testing.B) {
	p := dublinProblem(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlgorithm2 measures the paper's composite greedy
// (the k|V||T| term of its complexity analysis).
func BenchmarkAblationAlgorithm2(b *testing.B) {
	e := dublinEngine(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Algorithm2(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCombined measures the single-objective marginal-gain
// greedy ablation.
func BenchmarkAblationCombined(b *testing.B) {
	e := dublinEngine(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyCombined(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLazy measures the lazy-evaluation greedy, which exploits
// submodularity to skip most candidate re-evaluations.
func BenchmarkAblationLazy(b *testing.B) {
	e := dublinEngine(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GreedyLazy(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures a single placement evaluation, the inner loop
// of every experiment trial.
func BenchmarkEvaluate(b *testing.B) {
	e := dublinEngine(b, 7)
	pl, err := Algorithm2(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Evaluate(pl.Nodes)
	}
}

// BenchmarkEvaluatePrefixes measures the incremental nested-prefix sweep
// that replaces per-k re-evaluation in the experiment runners.
func BenchmarkEvaluatePrefixes(b *testing.B) {
	e := dublinEngine(b, 7)
	pl, err := Algorithm2(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.EvaluatePrefixes(pl.Nodes)
	}
}

// BenchmarkRandomBaseline measures the Random baseline including its
// geometric candidate filtering.
func BenchmarkRandomBaseline(b *testing.B) {
	e := dublinEngine(b, 7)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomPlacement(e, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Manhattan two-stage ablation: corners (Alg 3) vs midpoints (Alg 4) ----

func gridFixture(b *testing.B) (*GridScenario, []GridFlow) {
	b.Helper()
	sc, err := NewGridScenario(21, 125)
	if err != nil {
		b.Fatal(err)
	}
	flows, err := GenerateGridFlows(sc, DefaultGridDemand(), 7)
	if err != nil {
		b.Fatal(err)
	}
	return sc, flows
}

// BenchmarkAblationAlgorithm3 measures the two-stage threshold solver.
func BenchmarkAblationAlgorithm3(b *testing.B) {
	sc, flows := gridFixture(b)
	u := ThresholdUtility{D: sc.Side()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := manhattan.Algorithm3(sc, flows, u, 10, manhattan.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlgorithm4 measures the midpoint variant for decreasing
// utilities.
func BenchmarkAblationAlgorithm4(b *testing.B) {
	sc, flows := gridFixture(b)
	u := LinearUtility{D: sc.Side()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := manhattan.Algorithm4(sc, flows, u, 10, manhattan.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulate measures a 30-day stochastic dissemination simulation
// on the Dublin instance.
func BenchmarkSimulate(b *testing.B) {
	e := dublinEngine(b, 7)
	pl, err := Algorithm2(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(e, pl.Nodes, SimConfig{Days: 30, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedule measures the multi-shop campaign scheduler on shared
// infrastructure (3 campaigns, 10 RAPs, capacity 2).
func BenchmarkSchedule(b *testing.B) {
	e := dublinEngine(b, 7)
	pl, err := Algorithm2(e)
	if err != nil {
		b.Fatal(err)
	}
	base := e.Problem()
	campaigns := make([]Campaign, 3)
	for i := range campaigns {
		p := *base
		p.Shop = NodeID((i * 37) % base.Graph.NumNodes())
		campaigns[i] = Campaign{Name: string(rune('a' + i)), Problem: &p}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleGreedy(pl.Nodes, campaigns, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridEngine measures grid-semantics engine construction (flow
// expansion to shortest-path rectangles).
func BenchmarkGridEngine(b *testing.B) {
	sc, flows := gridFixture(b)
	u := LinearUtility{D: sc.Side()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Engine(flows, u, 10); err != nil {
			b.Fatal(err)
		}
	}
}
