package core

import (
	"math/rand"
	"reflect"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

// These tests pin the parallelism contract: every parallel code path must
// produce bit-identical results to its serial reference, for any worker
// count. Exact float comparison (not tolerance) is the point — parallel
// fan-out must not change even the last ulp.

// TestNewEngineParallelBitIdentical compares every arena of a serially
// built engine against parallel builds across instance shapes, including
// multi-shop and explicit-candidate problems.
func TestNewEngineParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []struct {
		nodes, flows int
	}{{20, 10}, {60, 40}, {250, 80}} {
		p := randomProblem(t, rng, size.nodes, size.flows, 5, utility.Linear{D: 50})
		if size.nodes >= 60 {
			p.ExtraShops = []graph.NodeID{(p.Shop + 1) % graph.NodeID(size.nodes)}
		}
		serial, err := newEngine(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			parallel, err := newEngine(p, workers)
			if err != nil {
				t.Fatal(err)
			}
			assertEnginesEqual(t, serial, parallel, size.nodes, workers)
		}
	}
}

// shardGains reads a shard's gains out page by page, cloned pages
// included, in visit order.
func shardGains(sh *arenaShard) []float64 {
	out := []float64{}
	for p := range sh.numGainPages() {
		out = append(out, sh.gainPage(p)...)
	}
	return out
}

func assertEnginesEqual(t *testing.T, a, b *Engine, nodes, workers int) {
	t.Helper()
	if len(a.shards) != len(b.shards) {
		t.Fatalf("nodes=%d workers=%d: shard count %d differs from serial %d",
			nodes, workers, len(b.shards), len(a.shards))
	}
	type arena struct {
		name string
		x, y interface{}
	}
	for si := range a.shards {
		x, y := &a.shards[si], &b.shards[si]
		for _, ar := range []arena{
			{"flowLo", x.flowLo, y.flowLo},
			{"flowHi", x.flowHi, y.flowHi},
			{"visitOff", x.visitOff, y.visitOff},
			{"visitFlow", x.visitFlow, y.visitFlow},
			{"visitDetour", x.visitDetour, y.visitDetour},
			{"gains", shardGains(x), shardGains(y)},
			{"flowOff", x.flowOff, y.flowOff},
			{"flowNode", x.flowNode, y.flowNode},
			{"flowDetour", x.flowDetour, y.flowDetour},
		} {
			if !reflect.DeepEqual(ar.x, ar.y) {
				t.Fatalf("nodes=%d workers=%d: shard %d arena %s differs from serial build",
					nodes, workers, si, ar.name)
			}
		}
	}
	if !reflect.DeepEqual(a.cands, b.cands) {
		t.Fatalf("nodes=%d workers=%d: cands differ from serial build", nodes, workers)
	}
}

// TestGreedyParallelBitIdentical runs every solver in the table with serial
// and parallel scans on an instance large enough to cross the parallel-scan
// threshold, asserting identical placements, step gains, and objectives.
func TestGreedyParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3; trial++ {
		// 250 nodes > minParallelScan, so workers>1 takes the chunked path.
		p := randomProblem(t, rng, 250, 60, 8, utility.Linear{D: 60})
		e, err := newEngine(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range Solvers() {
			serial, err := s.SolveWorkers(e, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := s.SolveWorkers(e, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Nodes, serial.Nodes) {
					t.Fatalf("%s workers=%d: nodes %v != serial %v",
						s.Name, workers, got.Nodes, serial.Nodes)
				}
				if !reflect.DeepEqual(got.StepGains, serial.StepGains) {
					t.Fatalf("%s workers=%d: step gains %v != serial %v",
						s.Name, workers, got.StepGains, serial.StepGains)
				}
				if !reflect.DeepEqual(got.StepKinds, serial.StepKinds) {
					t.Fatalf("%s workers=%d: step kinds differ", s.Name, workers)
				}
				if got.Attracted != serial.Attracted {
					t.Fatalf("%s workers=%d: objective %v != serial %v",
						s.Name, workers, got.Attracted, serial.Attracted)
				}
			}
		}
	}
}

// TestEvaluatePrefixesMatchesEvaluate pins the incremental prefix sweep to
// the one-shot evaluator bit for bit, which is what lets the experiment
// runners replace per-k re-evaluation.
func TestEvaluatePrefixesMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(t, rng, 80, 40, 6, utility.Sqrt{D: 70})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := GreedyCombined(e)
	if err != nil {
		t.Fatal(err)
	}
	prefix := e.EvaluatePrefixes(pl.Nodes)
	if len(prefix) != len(pl.Nodes)+1 {
		t.Fatalf("got %d prefix values for %d nodes", len(prefix), len(pl.Nodes))
	}
	for n := 0; n <= len(pl.Nodes); n++ {
		if want := e.Evaluate(pl.Nodes[:n]); prefix[n] != want {
			t.Fatalf("prefix[%d] = %v, Evaluate = %v", n, prefix[n], want)
		}
	}
}
