package core_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/model"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// frozenSolverDigest is the digest of every placement TestFrozenSolverDigest
// produces. It was taken from the three hand-written eager loops the step
// driver replaced, so it pins the driver's outputs to theirs bit for bit —
// something the serial-versus-parallel identity tests cannot do, because a
// refactor that changes both sides the same way passes them. A deliberate
// change to solver output must update this constant and say why.
const frozenSolverDigest = 0xbbd37505b5f500b0

// digestFixtures builds the frozen engines: Fig. 4 under two utilities,
// random instances under the paper's three utilities (large enough that an
// 8-worker scan takes the chunked path), one engine per objective model,
// and a forced multi-shard build.
func digestFixtures(t *testing.T) map[string]*core.Engine {
	t.Helper()
	build := func(p *core.Problem) *core.Engine {
		e, err := core.NewEngineWorkers(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rng := rand.New(rand.NewSource(2015))
	random := func(u utility.Function) *core.Problem {
		return testutil.RandomProblem(t, rng, 250, 60, 8, u)
	}
	engines := map[string]*core.Engine{
		"fig4-threshold": build(testutil.Fig4Problem(t, utility.Threshold{D: 6})),
		"fig4-linear":    build(testutil.Fig4Problem(t, utility.Linear{D: 6})),
		"threshold":      build(random(utility.Threshold{D: 15})),
		"linear":         build(random(utility.Linear{D: 25})),
		"sqrt":           build(random(utility.Sqrt{D: 40})),
	}
	models := []struct {
		name string
		m    core.ObjectiveModel
	}{
		{"probabilistic", model.Probabilistic{Reception: 0.8}},
		{"resistance", model.Resistance{Scale: 50}},
		{"capacity", model.Capacity{
			RangeFeet: 500, SpeedFtPerSec: 100, DataRateBps: 4e4, AdSizeBits: 1e6, MinCompletion: 0.3,
		}},
	}
	for _, m := range models {
		p := testutil.RandomProblem(t, rng, 60, 40, 6, utility.Linear{D: 15})
		p.Model = m.m
		engines["model-"+m.name] = build(p)
	}
	sharded, err := core.NewEngineMaxShard(random(utility.Sqrt{D: 30}), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.NumShards() < 2 {
		t.Fatalf("forced multi-shard fixture built %d shard(s)", sharded.NumShards())
	}
	engines["sharded"] = sharded
	return engines
}

func writeUint64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func writePlacement(h hash.Hash64, pl *core.Placement) {
	writeUint64(h, uint64(len(pl.Nodes)))
	for _, v := range pl.Nodes {
		writeUint64(h, uint64(v))
	}
	writeUint64(h, uint64(len(pl.StepGains)))
	for _, g := range pl.StepGains {
		writeUint64(h, math.Float64bits(g))
	}
	writeUint64(h, uint64(len(pl.StepKinds)))
	for _, k := range pl.StepKinds {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	writeUint64(h, math.Float64bits(pl.Attracted))
}

// TestFrozenSolverDigest hashes the placements of all four solvers at scan
// worker counts 1 and 8, plus one budgeted run per engine, over every
// fixture in a fixed order, and compares the hash to frozenSolverDigest.
func TestFrozenSolverDigest(t *testing.T) {
	engines := digestFixtures(t)
	order := []string{
		"fig4-threshold", "fig4-linear", "threshold", "linear", "sqrt",
		"model-probabilistic", "model-resistance", "model-capacity", "sharded",
	}
	solvers := []struct {
		name string
		run  func(*core.Engine, int) (*core.Placement, error)
	}{
		{"algorithm1", core.Algorithm1Workers},
		{"algorithm2", core.Algorithm2Workers},
		{"combined", core.GreedyCombinedWorkers},
		{"lazy", func(e *core.Engine, _ int) (*core.Placement, error) { return core.GreedyLazy(e) }},
	}
	h := fnv.New64a()
	for _, name := range order {
		e := engines[name]
		for _, sv := range solvers {
			for _, workers := range []int{1, 8} {
				pl, err := sv.run(e, workers)
				if err != nil {
					t.Fatalf("%s on %s at workers=%d: %v", sv.name, name, workers, err)
				}
				writePlacement(h, pl)
			}
		}
		costs := make(map[graph.NodeID]float64, len(e.Candidates()))
		for _, v := range e.Candidates() {
			costs[v] = 1 + float64(v%5)
		}
		bp, err := core.BudgetedGreedy(e, &core.BudgetedProblem{Costs: costs, Budget: 12})
		if err != nil {
			t.Fatalf("budgeted on %s: %v", name, err)
		}
		writePlacement(h, &core.Placement{Nodes: bp.Nodes, Attracted: bp.Attracted})
		writeUint64(h, math.Float64bits(bp.Spent))
	}
	if got := h.Sum64(); got != frozenSolverDigest {
		t.Fatalf("solver digest %#x, frozen %#x: a solver's output changed", got, uint64(frozenSolverDigest))
	}
}

// frozenCityDigest is the digest TestFrozenCityDigest produces. Unlike the
// 250-node fixtures above, where a placement's flows reach most of the
// candidate list, these engines are city-scale: a placement touches a small
// share of the candidates and a flow's path nodes are a small share of its
// destination group's. It was taken before the eager steps became
// incremental and the detour pass addressed its columns by flow span, so it
// pins both to the full-rescan, binary-search code bit for bit.
const frozenCityDigest = 0xad761c77017e5b4a

// cityFixtures builds the frozen city-scale engines: a 20k-node mega city
// with hub-local flows, and a Dublin city whose bus routes are the flows.
func cityFixtures(t *testing.T) map[string]*core.Engine {
	t.Helper()
	mega, err := citygen.Mega(20_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	demand := citygen.LocalDemandConfig{Flows: 2_000, Hubs: 16, MinHops: 8, MaxHops: 48, VolumeMean: 3, Alpha: 1}
	megaFlows, err := citygen.GenerateLocalFlows(mega, demand, 8)
	if err != nil {
		t.Fatal(err)
	}
	dublin, err := citygen.Dublin(9)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := citygen.GenerateRoutes(dublin, citygen.DefaultDemand(), 9)
	if err != nil {
		t.Fatal(err)
	}
	dublinFlows, err := citygen.RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	build := func(g *graph.Graph, fl []flow.Flow, shop graph.NodeID, d float64) *core.Engine {
		fs, err := flow.NewSet(fl)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngineWorkers(&core.Problem{Graph: g, Shop: shop, Flows: fs, Utility: utility.Linear{D: d}, K: 10}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return map[string]*core.Engine{
		"mega":   build(mega.Graph, megaFlows, megaFlows[0].Dest, 20_000),
		"dublin": build(dublin.Graph, dublinFlows, dublinFlows[0].Path[len(dublinFlows[0].Path)/2], 20_000),
	}
}

// TestFrozenCityDigest hashes, on each city fixture, every flow's detour
// at every node of its path, every candidate's standalone gain, and all
// four solvers' placements at scan worker counts 1, 2 and 8, and compares
// the hash to frozenCityDigest.
func TestFrozenCityDigest(t *testing.T) {
	engines := cityFixtures(t)
	h := fnv.New64a()
	for _, name := range []string{"mega", "dublin"} {
		e := engines[name]
		flows := e.Problem().Flows
		for f := 0; f < flows.Len(); f++ {
			for _, v := range flows.At(f).Path {
				writeUint64(h, math.Float64bits(e.Detour(f, v)))
			}
		}
		for _, v := range e.Candidates() {
			writeUint64(h, math.Float64bits(e.StandaloneGain(v)))
		}
		for _, s := range core.Solvers() {
			for _, workers := range []int{1, 2, 8} {
				pl, err := s.SolveWorkers(e, workers)
				if err != nil {
					t.Fatalf("%s on %s at workers=%d: %v", s.Name, name, workers, err)
				}
				writePlacement(h, pl)
			}
		}
	}
	if got := h.Sum64(); got != frozenCityDigest {
		t.Fatalf("city digest %#x, frozen %#x: a detour or a solver's output changed", got, uint64(frozenCityDigest))
	}
}
