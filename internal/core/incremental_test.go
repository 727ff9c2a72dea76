package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/model"
	"roadside/internal/obs"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// The eager solvers re-score, after step 0, only the candidates on a flow
// through the previous winner. These tests hold them to the every-step
// full rescan, core.EagerReference, across the shapes the cache could get
// wrong: candidate lists with duplicates in different parallel chunks,
// subsets, multi-shard arenas, every objective economy, and budgets past
// the useful candidates.

// incrementalObjectives are the paper objective under the three paper
// utilities and the three objective models.
func incrementalObjectives() []struct {
	name  string
	u     utility.Function
	model core.ObjectiveModel
} {
	return []struct {
		name  string
		u     utility.Function
		model core.ObjectiveModel
	}{
		{"threshold", utility.Threshold{D: 15}, nil},
		{"linear", utility.Linear{D: 25}, nil},
		{"sqrt", utility.Sqrt{D: 40}, nil},
		{"probabilistic", utility.Linear{D: 25}, model.Probabilistic{Reception: 0.8}},
		{"resistance", utility.Linear{D: 25}, model.Resistance{Scale: 50}},
		{"capacity", utility.Linear{D: 25}, model.Capacity{
			RangeFeet: 500, SpeedFtPerSec: 100, DataRateBps: 4e4, AdSizeBits: 1e6, MinCompletion: 0.3,
		}},
	}
}

// candidateLists returns nil (every node), a shuffled subset, and a list
// with duplicates: every node, then the first nodes again in reverse, so
// a node's two positions fall in different parallel scan chunks.
func candidateLists(rng *rand.Rand, nodes int) map[string][]graph.NodeID {
	perm := rng.Perm(nodes)
	subset := make([]graph.NodeID, 0, 2*nodes/3)
	for _, v := range perm[:2*nodes/3] {
		subset = append(subset, graph.NodeID(v))
	}
	dups := make([]graph.NodeID, 0, nodes+nodes/2)
	for v := 0; v < nodes; v++ {
		dups = append(dups, graph.NodeID(v))
	}
	for v := nodes/2 - 1; v >= 0; v-- {
		dups = append(dups, graph.NodeID(v))
	}
	return map[string][]graph.NodeID{"all": nil, "subset": subset, "dups": dups}
}

// checkEagerIncremental runs every eager solver at workers 1, 2 and 8 and
// compares each placement with the full-rescan reference.
func checkEagerIncremental(t *testing.T, name string, e *core.Engine) {
	t.Helper()
	for _, solver := range core.EagerSolvers {
		want := core.EagerReference(e, solver)
		s, _ := core.LookupSolver(solver)
		for _, workers := range []int{1, 2, 8} {
			got, err := s.SolveWorkers(e, workers)
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", name, solver, workers, err)
			}
			if err := core.SamePlacement(want, got); err != nil {
				t.Fatalf("%s %s workers=%d: incremental scan differs from full rescan: %v", name, solver, workers, err)
			}
		}
	}
}

// TestEagerIncrementalMatchesReference is the differential battery: every
// objective, candidate list and shard layout, with a budget past the
// number of useful candidates so the zero-gain stop is reached.
func TestEagerIncrementalMatchesReference(t *testing.T) {
	const nodes = 300
	rng := rand.New(rand.NewSource(17))
	stopped := false
	for _, obj := range incrementalObjectives() {
		base := testutil.RandomProblem(t, rng, nodes, 50, 8, obj.u)
		base.Model = obj.model
		for cname, cands := range candidateLists(rng, nodes) {
			p := *base
			p.Candidates = cands
			for _, shardBudget := range []int{0, 150} {
				k := 8
				if shardBudget != 0 {
					k = nodes + 5 // past every useful candidate
				}
				p.K = k
				var e *core.Engine
				var err error
				if shardBudget == 0 {
					e, err = core.NewEngineWorkers(&p, 2)
				} else {
					e, err = core.NewEngineMaxShard(&p, 2, shardBudget)
					if err == nil && e.NumShards() < 2 {
						t.Fatalf("%s/%s: shard budget %d built %d shard(s)", obj.name, cname, shardBudget, e.NumShards())
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				checkEagerIncremental(t, fmt.Sprintf("%s/%s/shards=%d", obj.name, cname, e.NumShards()), e)
				if pl := core.EagerReference(e, "combined"); len(pl.Nodes) < k {
					stopped = true
				}
			}
		}
	}
	if !stopped {
		t.Fatal("no fixture reached the zero-gain stop")
	}
}

// stepCapture records the solver step events of one run.
type stepCapture struct {
	obs.Nop
	steps []obs.SolverStep
}

func (c *stepCapture) SolverStep(s obs.SolverStep) { c.steps = append(c.steps, s) }

// TestEagerScanCounts pins what SolverStep.Scanned reports for the eager
// solvers: step 0 evaluates every candidate position, and each later step
// evaluates at most the distinct candidates on the flows through the
// previous step's winner.
func TestEagerScanCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	engines := cityFixtures(t)
	p := *engines["dublin"].Problem()
	p.Candidates = candidateLists(rng, p.Graph.NumNodes())["dups"]
	dups, err := core.NewEngineWorkers(&p, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines["dublin-dups"] = dups
	for name, e := range engines {
		isCand := map[graph.NodeID]bool{}
		for _, v := range e.Candidates() {
			isCand[v] = true
		}
		flows := e.Problem().Flows
		for _, solver := range core.EagerSolvers {
			s, _ := core.LookupSolver(solver)
			capture := &stepCapture{}
			pl, err := s.SolveWorkers(e.WithObserver(capture), 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.Nodes) < 2 {
				t.Fatalf("%s %s: %d steps, the fixture needs at least 2", name, solver, len(pl.Nodes))
			}
			for i, ev := range capture.steps {
				if i == 0 {
					if ev.Scanned != len(e.Candidates()) {
						t.Fatalf("%s %s: step 0 scanned %d, want every candidate (%d)", name, solver, ev.Scanned, len(e.Candidates()))
					}
					continue
				}
				touched := map[graph.NodeID]bool{}
				for _, fv := range e.VisitsAt(pl.Nodes[i-1]) {
					for _, v := range flows.At(fv.Flow).Path {
						if isCand[v] {
							touched[v] = true
						}
					}
				}
				if ev.Scanned > len(touched) || ev.Chunks != 1 {
					t.Fatalf("%s %s: step %d scanned %d in %d chunk(s), want at most %d distinct candidates on the winner's flows in 1",
						name, solver, i, ev.Scanned, ev.Chunks, len(touched))
				}
			}
		}
	}
}

// FuzzEagerIncremental builds small fuzz-shaped problems — few flows over
// many nodes, candidate lists with duplicates, tight shard budgets — and
// requires the incremental eager solvers to match the full rescan.
func FuzzEagerIncremental(f *testing.F) {
	f.Add(int64(1), uint8(200), uint8(6), uint8(5), uint8(3), uint16(40))
	f.Add(int64(2), uint8(30), uint8(20), uint8(12), uint8(0), uint16(0))
	f.Add(int64(3), uint8(255), uint8(2), uint8(30), uint8(7), uint16(9))
	f.Fuzz(func(t *testing.T, seed int64, nodes, flows, k, cands uint8, shardBudget uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + int(nodes)
		utilities := []utility.Function{utility.Threshold{D: 15}, utility.Linear{D: 25}, utility.Sqrt{D: 40}}
		p := testutil.RandomProblem(t, rng, n, 1+int(flows)%24, 1+int(k)%40, utilities[int(cands>>4)%3])
		// Low bits pick the candidate list: every node, a sample, or the
		// sample with repeats; bit 2 adds the probabilistic model.
		if cands&3 != 0 {
			list := make([]graph.NodeID, 1+rng.Intn(n))
			for i := range list {
				list[i] = graph.NodeID(rng.Intn(n))
			}
			if cands&3 == 2 {
				list = append(list, list...)
			}
			p.Candidates = list
		}
		if cands&4 != 0 {
			p.Model = model.Probabilistic{Reception: 0.7}
		}
		longest := 0
		for i := 0; i < p.Flows.Len(); i++ {
			longest = max(longest, len(p.Flows.At(i).Path))
		}
		budget := 1 << 30
		if shardBudget != 0 {
			budget = longest + int(shardBudget)%64
		}
		e, err := core.NewEngineMaxShard(p, 2, budget)
		if err != nil {
			t.Fatal(err)
		}
		checkEagerIncremental(t, fmt.Sprintf("seed=%d shards=%d", seed, e.NumShards()), e)
	})
}
