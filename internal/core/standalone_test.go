package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"roadside/internal/graph"
	"roadside/internal/utility"
)

// sameGains reports the first position where got and want differ at
// Float64bits granularity.
func sameGains(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d gains, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("position %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkStandaloneChain drives one engine family through steps random
// ApplyCopy batches, each child deriving from the last, and after each
// batch compares the vector the engine derives with a serial scan of a
// fresh build of the updated problem. Rolls decide whether each engine
// computes its vector at all, so children inherit a computed vector or
// nothing in turn; the lazy placement read from the derived vector must
// equal the fresh engine's. A roll per step also pins the receiver's
// fingerprint across the update.
func checkStandaloneChain(t *testing.T, rng *rand.Rand, p *Problem, budget, steps int) {
	t.Helper()
	e, err := buildEngine(p, 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGains(e.standaloneGains(), e.scanStandalone(1)); err != nil {
		t.Fatalf("fresh vector vs serial scan: %v", err)
	}
	for step := 0; step < steps; step++ {
		ops := randomOps(t, rng, e.Problem(), 1+rng.Intn(4))
		want, err := ApplyToProblem(e.Problem(), ops)
		if err != nil {
			t.Fatal(err)
		}
		parent, pin := e, rng.Intn(2) == 0
		var before uint64
		if pin {
			before = parent.Fingerprint()
		}
		if e, _, err = e.ApplyCopy(ops); err != nil {
			t.Fatal(err)
		}
		if pin && parent.Fingerprint() != before {
			t.Fatalf("step %d: ApplyCopy changed the receiver's fingerprint", step)
		}
		if rng.Intn(3) == 0 {
			continue // leave the vector uncomputed for the next batch
		}
		fresh, err := buildEngine(want, 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("step %d (%d shards, %d candidates)", step, e.NumShards(), len(e.cands))
		if err := sameGains(e.standaloneGains(), fresh.scanStandalone(1)); err != nil {
			t.Fatalf("%s: derived vector vs fresh scan: %v", label, err)
		}
		got, err := GreedyLazy(e)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := GreedyLazy(fresh)
		if err != nil {
			t.Fatal(err)
		}
		assertPlacementsEqual(t, label+": lazy", got, ref)
	}
}

// standaloneProblem draws a random problem whose candidate list is every
// node (list 0), a random sample (1) or the sample with repeats (2), and a
// shard budget that forces several shards when multi is set.
func standaloneProblem(t *testing.T, rng *rand.Rand, nodes, flows, list int, multi bool) (*Problem, int) {
	t.Helper()
	utilities := []utility.Function{utility.Threshold{D: 15}, utility.Linear{D: 60}, utility.Sqrt{D: 40}}
	p := randomProblem(t, rng, nodes, flows, 1+rng.Intn(6), utilities[rng.Intn(len(utilities))])
	if list != 0 {
		cands := make([]graph.NodeID, 1+rng.Intn(nodes))
		for i := range cands {
			cands[i] = graph.NodeID(rng.Intn(nodes))
		}
		if list == 2 {
			cands = append(cands, cands...)
		}
		p.Candidates = cands
	}
	budget := math.MaxInt32
	if multi {
		// Large enough for any flow (a path visits at most every node),
		// small enough to split the arenas.
		budget = nodes + rng.Intn(nodes)
	}
	return p, budget
}

// TestStandaloneGainsDerived is the differential check of the inherited
// vector over random volume, remove and add sequences, with single and
// forced multi-shard layouts and every kind of candidate list.
func TestStandaloneGainsDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		multi := trial%2 == 1
		p, budget := standaloneProblem(t, rng, 30+rng.Intn(30), 10+rng.Intn(20), trial/2%3, multi)
		if e, err := buildEngine(p, 1, budget); err != nil {
			t.Fatal(err)
		} else if multi && e.NumShards() < 2 {
			t.Fatalf("trial %d: budget %d left %d shard", trial, budget, e.NumShards())
		}
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			checkStandaloneChain(t, rng, p, budget, 8)
		})
	}
}

// FuzzStandaloneGains is TestStandaloneGainsDerived on fuzzer-chosen
// instances: the derived vector must equal a fresh scan bit for bit after
// any update sequence.
func FuzzStandaloneGains(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(12), uint8(0), false, uint8(6))
	f.Add(int64(2), uint8(60), uint8(25), uint8(1), true, uint8(10))
	f.Add(int64(3), uint8(8), uint8(3), uint8(2), true, uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes, flows, list uint8, multi bool, steps uint8) {
		rng := rand.New(rand.NewSource(seed))
		p, budget := standaloneProblem(t, rng, 4+int(nodes)%80, 1+int(flows)%30, int(list)%3, multi)
		checkStandaloneChain(t, rng, p, budget, 1+int(steps)%12)
	})
}

// TestStandaloneGainsOffered pins that the vector Algorithm 2 and
// GreedyCombined publish from their step-0 scan equals the lazy solver's
// own parallel scan.
func TestStandaloneGainsOffered(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		p, budget := standaloneProblem(t, rng, 40+rng.Intn(40), 10+rng.Intn(20), trial%3, trial%2 == 1)
		for _, run := range []func(*Engine, int) (*Placement, error){Algorithm2Workers, GreedyCombinedWorkers} {
			e, err := buildEngine(p, 2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run(e, 2); err != nil {
				t.Fatal(err)
			}
			if e.sa.gains.Load() == nil {
				t.Fatalf("trial %d: the eager scan published no vector", trial)
			}
			if err := sameGains(e.standaloneGains(), e.scanStandalone(2)); err != nil {
				t.Fatalf("trial %d: offered vector vs scan: %v", trial, err)
			}
		}
	}
}

// TestStandaloneConcurrentFirstSolves races the first lazy, Algorithm 2
// and GreedyCombined solves of one fresh engine and its WithBudget views,
// which share the vector; run under -race. Every answer must equal the
// serial reference on a separately built engine.
func TestStandaloneConcurrentFirstSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomProblem(t, rng, 300, 60, 6, utility.Linear{D: 60})
	solvers := []string{"lazy", "algorithm2", "combined"}
	budgets := []int{6, 2, 4}
	ref, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]*Placement{}
	for _, k := range budgets {
		view, err := ref.WithBudget(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range solvers {
			s, _ := LookupSolver(name)
			if want[fmt.Sprint(name, k)], err = s.SolveWorkers(view, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, len(solvers)*len(budgets)*2)
		for _, k := range budgets {
			view, err := e.WithBudget(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range solvers {
				s, _ := LookupSolver(name)
				for rep := 0; rep < 2; rep++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got, err := s.SolveWorkers(view, 2)
						if err == nil {
							err = SamePlacement(got, want[fmt.Sprint(name, k)])
						}
						if err != nil {
							errs <- fmt.Errorf("%s k=%d: %w", name, k, err)
						}
					}()
				}
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}
}
