package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// randomOps derives a random but valid update batch against p: volume
// drifts, removals, and additions whose paths are real shortest paths of
// the graph. nFlows tracks the evolving flow count so indices stay valid
// when ops apply sequentially.
func randomOps(tb testing.TB, rng *rand.Rand, p *Problem, n int) []FlowUpdate {
	tb.Helper()
	g := p.Graph
	nodes := g.NumNodes()
	nFlows := p.Flows.Len()
	ops := make([]FlowUpdate, 0, n)
	for len(ops) < n {
		switch choice := rng.Intn(4); {
		case choice <= 1: // volume drift, twice as likely
			ops = append(ops, FlowUpdate{
				Op:     OpSetVolume,
				Flow:   rng.Intn(nFlows),
				Volume: 1 + rng.Float64()*99,
			})
		case choice == 2 && nFlows > 1:
			ops = append(ops, FlowUpdate{Op: OpRemoveFlow, Flow: rng.Intn(nFlows)})
			nFlows--
		case choice == 3:
			src := graph.NodeID(rng.Intn(nodes))
			dst := graph.NodeID(rng.Intn(nodes))
			if src == dst {
				continue
			}
			path, _, err := g.ShortestPath(src, dst)
			if err != nil {
				continue
			}
			f, err := flow.New("added", path, 1+rng.Float64()*99, rng.Float64())
			if err != nil {
				tb.Fatal(err)
			}
			ops = append(ops, FlowUpdate{Op: OpAddFlow, Add: f})
			nFlows++
		}
	}
	return ops
}

// assertPlacementsEqual fails the test unless b is bit-identical to a.
func assertPlacementsEqual(t *testing.T, label string, a, b *Placement) {
	t.Helper()
	if err := SamePlacement(a, b); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// assertDeltaMatchesFresh runs the full bit-identity battery between a
// delta-mutated engine and a freshly built one for the mutated problem.
func assertDeltaMatchesFresh(t *testing.T, delta, fresh *Engine) {
	t.Helper()
	if got, want := delta.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("fingerprint %#x after delta, fresh build %#x", got, want)
	}
	assertEnginesEqual(t, fresh, delta, fresh.p.Graph.NumNodes(), 0)
	type solver struct {
		name string
		run  func(*Engine) (*Placement, error)
	}
	for _, s := range []solver{
		{"algorithm1", Algorithm1},
		{"algorithm2", Algorithm2},
		{"combined", GreedyCombined},
		{"lazy", GreedyLazy},
	} {
		pa, err := s.run(delta)
		if err != nil {
			t.Fatalf("%s on delta engine: %v", s.name, err)
		}
		pb, err := s.run(fresh)
		if err != nil {
			t.Fatalf("%s on fresh engine: %v", s.name, err)
		}
		assertPlacementsEqual(t, s.name, pa, pb)
		pref1 := delta.EvaluatePrefixes(pa.Nodes)
		pref2 := fresh.EvaluatePrefixes(pb.Nodes)
		for i := range pref1 {
			if math.Float64bits(pref1[i]) != math.Float64bits(pref2[i]) {
				t.Fatalf("%s: prefix[%d] %v vs %v", s.name, i, pref1[i], pref2[i])
			}
		}
	}
}

// TestDeltaIdentity is the core contract: ApplyCopy(ops) on a live engine
// derives one equal to a fresh build of ApplyToProblem(p, ops) bit for
// bit — arenas, fingerprints, all four solvers' placements, and prefix
// objectives.
func TestDeltaIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 8; trial++ {
		nodes := 20 + rng.Intn(40)
		p := randomProblem(t, rng, nodes, 8+rng.Intn(12), 4, utility.Linear{D: 80})
		eng, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		ops := randomOps(t, rng, p, 1+rng.Intn(5))
		mutated, err := ApplyToProblem(p, ops)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(mutated)
		if err != nil {
			t.Fatal(err)
		}
		next, touched, err := eng.ApplyCopy(ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(touched) == 0 {
			t.Fatal("ApplyCopy reported no touched nodes")
		}
		for i := 1; i < len(touched); i++ {
			if touched[i-1] >= touched[i] {
				t.Fatalf("touched nodes not sorted distinct: %v", touched)
			}
		}
		if next.Problem().Flows.Len() != mutated.Flows.Len() {
			t.Fatalf("flow count %d after ApplyCopy, want %d", next.Problem().Flows.Len(), mutated.Flows.Len())
		}
		assertDeltaMatchesFresh(t, next, fresh)
	}
}

// TestDeltaIdentitySharded forces multi-shard engines through the delta
// path: removals whose greedy repacking diverges trigger the reshard
// fallback, additions open fresh shards, and the result must still match
// a fresh sharded build bit for bit.
func TestDeltaIdentitySharded(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 6; trial++ {
		nodes := 25 + rng.Intn(30)
		p := randomProblem(t, rng, nodes, 10+rng.Intn(10), 4, utility.Sqrt{D: 90})
		budget := nodes + 1 // roughly one flow per shard
		eng, err := NewEngineMaxShard(p, 2, budget)
		if err != nil {
			t.Fatal(err)
		}
		if eng.NumShards() < 2 {
			t.Fatalf("budget %d produced %d shards, want > 1", budget, eng.NumShards())
		}
		ops := randomOps(t, rng, p, 2+rng.Intn(4))
		mutated, err := ApplyToProblem(p, ops)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngineMaxShard(mutated, 1, budget)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := eng.ApplyCopy(ops)
		if err != nil {
			t.Fatal(err)
		}
		assertDeltaMatchesFresh(t, next, fresh)
	}
}

// TestApplyCopyIsolation pins the copy-on-write contract: the receiver is
// bit-for-bit untouched after ApplyCopy (concurrent readers keep a
// consistent engine) while the copy matches a fresh build.
func TestApplyCopyIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := randomProblem(t, rng, 40, 15, 4, utility.Linear{D: 80})
	eng, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Fingerprint()
	beforeFlows := eng.Problem().Flows.Len()

	ops := []FlowUpdate{
		{Op: OpSetVolume, Flow: 0, Volume: 1234.5},
		{Op: OpRemoveFlow, Flow: 3},
	}
	next, touched, err := eng.ApplyCopy(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(touched) == 0 {
		t.Fatal("no touched nodes reported")
	}
	if eng.Fingerprint() != before {
		t.Fatal("ApplyCopy mutated the receiver's arenas")
	}
	if eng.Problem().Flows.Len() != beforeFlows {
		t.Fatal("ApplyCopy mutated the receiver's problem")
	}

	mutated, err := ApplyToProblem(p, ops)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(mutated)
	if err != nil {
		t.Fatal(err)
	}
	assertDeltaMatchesFresh(t, next, fresh)

	// Chains of copies keep working: apply another batch to the copy.
	ops2 := []FlowUpdate{{Op: OpSetVolume, Flow: 1, Volume: 7}}
	next2, _, err := next.ApplyCopy(ops2)
	if err != nil {
		t.Fatal(err)
	}
	mutated2, err := ApplyToProblem(mutated, ops2)
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := NewEngine(mutated2)
	if err != nil {
		t.Fatal(err)
	}
	assertDeltaMatchesFresh(t, next2, fresh2)
}

// TestDeltaErrors exercises the validation pass: every structurally bad
// batch is rejected before anything is derived, leaving the engine
// bit-identical to its pre-call state.
func TestDeltaErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(t, rng, 25, 3, 3, utility.Linear{D: 60})
	eng, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Fingerprint()
	cases := []struct {
		name string
		ops  []FlowUpdate
		want error
	}{
		{"empty batch", nil, ErrBadUpdate},
		{"index out of range", []FlowUpdate{{Op: OpSetVolume, Flow: 99, Volume: 1}}, ErrBadUpdate},
		{"negative index", []FlowUpdate{{Op: OpRemoveFlow, Flow: -1}}, ErrBadUpdate},
		{"bad volume", []FlowUpdate{{Op: OpSetVolume, Flow: 0, Volume: -5}}, flow.ErrBadVolume},
		{"remove all", []FlowUpdate{
			{Op: OpRemoveFlow, Flow: 0}, {Op: OpRemoveFlow, Flow: 0}, {Op: OpRemoveFlow, Flow: 0},
		}, ErrBadUpdate},
		{"unknown op", []FlowUpdate{{Op: UpdateOp(42)}}, ErrBadUpdate},
	}
	for _, tc := range cases {
		if _, _, err := eng.ApplyCopy(tc.ops); err == nil {
			t.Fatalf("%s: ApplyCopy succeeded, want error", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := ApplyToProblem(p, tc.ops); err == nil && len(tc.ops) > 0 {
			t.Fatalf("%s: ApplyToProblem succeeded, want error", tc.name)
		}
	}
	// A path that is not a walk of the graph must be rejected.
	badPath := []graph.NodeID{graph.NodeID(0), graph.NodeID(0)}
	f := flow.Flow{ID: "bad", Path: badPath, Volume: 1, Alpha: 0.5}
	if _, _, err := eng.ApplyCopy([]FlowUpdate{{Op: OpAddFlow, Add: f}}); err == nil {
		t.Fatal("self-loop add path accepted")
	}
	if eng.Fingerprint() != before {
		t.Fatal("failed ApplyCopy mutated the engine")
	}
}

// TestWarmLazyIdentity pins the warm-start contract: across a chain of
// delta updates, GreedyLazyWarm with a refreshed cache returns the cold
// GreedyLazy placement bit for bit.
func TestWarmLazyIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 5; trial++ {
		p := randomProblem(t, rng, 30+rng.Intn(30), 10+rng.Intn(10), 4, utility.Linear{D: 80})
		eng, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		warm := eng.NewWarm()
		cold, err := GreedyLazy(eng)
		if err != nil {
			t.Fatal(err)
		}
		viaWarm, err := GreedyLazyWarm(eng, warm)
		if err != nil {
			t.Fatal(err)
		}
		assertPlacementsEqual(t, "initial warm", cold, viaWarm)

		for step := 0; step < 4; step++ {
			ops := randomOps(t, rng, eng.Problem(), 1+rng.Intn(3))
			next, touched, err := eng.ApplyCopy(ops)
			if err != nil {
				t.Fatal(err)
			}
			eng = next
			warm.Refresh(eng, touched)
			cold, err := GreedyLazy(eng)
			if err != nil {
				t.Fatal(err)
			}
			viaWarm, err := GreedyLazyWarm(eng, warm)
			if err != nil {
				t.Fatal(err)
			}
			assertPlacementsEqual(t, "after updates", cold, viaWarm)
		}
	}
}

// TestWarmMismatch rejects a warm cache from a different candidate list.
func TestWarmMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p1 := randomProblem(t, rng, 20, 5, 3, utility.Linear{D: 60})
	p2 := randomProblem(t, rng, 30, 5, 3, utility.Linear{D: 60})
	e1, err := NewEngine(p1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyLazyWarm(e2, e1.NewWarm()); err == nil {
		t.Fatal("mismatched warm cache accepted")
	}
	pl, err := GreedyLazyWarm(e2, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := GreedyLazy(e2)
	if err != nil {
		t.Fatal(err)
	}
	assertPlacementsEqual(t, "nil warm", cold, pl)
}

// TestSplitDigest pins the lineage reference syntax.
func TestSplitDigest(t *testing.T) {
	if d := DeriveDigest("rapd2-ab", 0); d != "rapd2-ab" {
		t.Fatalf("seq 0 derived %q", d)
	}
	if d := DeriveDigest("rapd2-ab", 3); d != "rapd2-ab@3" {
		t.Fatalf("seq 3 derived %q", d)
	}
	base, seq, err := SplitDigest("rapd2-ab@3")
	if err != nil || base != "rapd2-ab" || seq != 3 {
		t.Fatalf("SplitDigest = %q, %d, %v", base, seq, err)
	}
	base, seq, err = SplitDigest("rapd2-ab")
	if err != nil || base != "rapd2-ab" || seq != 0 {
		t.Fatalf("plain SplitDigest = %q, %d, %v", base, seq, err)
	}
	for _, bad := range []string{
		"rapd2-ab@", "rapd2-ab@x", "rapd2-ab@-1",
		// Non-canonical spellings of a valid sequence must not alias it.
		"rapd2-ab@+3", "rapd2-ab@03", "rapd2-ab@00", "rapd2-ab@-0",
	} {
		if _, _, err := SplitDigest(bad); err == nil {
			t.Fatalf("SplitDigest(%q) accepted", bad)
		}
	}
}
