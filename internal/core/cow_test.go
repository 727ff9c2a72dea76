package core_test

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/utility"
)

// lineageMega is a citygen.Mega city with hub-local flows shaped like
// perfbench's plan-offline mega fixture (64 hubs, 8-48 hops).
func lineageMega(tb testing.TB, nodes, flows int) *core.Problem {
	tb.Helper()
	city, err := citygen.Mega(nodes, 2015)
	if err != nil {
		tb.Fatal(err)
	}
	demand := citygen.LocalDemandConfig{Flows: flows, Hubs: 64, MinHops: 8, MaxHops: 48, VolumeMean: 3, Alpha: 1}
	fl, err := citygen.GenerateLocalFlows(city, demand, 2016)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Problem{Graph: city.Graph, Shop: fl[0].Dest, Flows: fs, Utility: utility.Linear{D: 20_000}, K: 10}
}

// volumeDrift sets the volumes of eight fixed random flows of p, each
// scaled by a factor in [0.25, 3) drawn from seed: the drift a lineage
// update carries.
func volumeDrift(p *core.Problem, seed int64) []core.FlowUpdate {
	perm := rand.New(rand.NewSource(2015)).Perm(p.Flows.Len())
	rng := rand.New(rand.NewSource(seed))
	ops := make([]core.FlowUpdate, 0, 8)
	for _, f := range perm[:min(8, len(perm))] {
		vol := p.Flows.At(f).Volume * (0.25 + 2.75*rng.Float64())
		ops = append(ops, core.FlowUpdate{Op: core.OpSetVolume, Flow: f, Volume: vol})
	}
	return ops
}

// lineageDublin is a Dublin city whose bus routes are the flows, the
// shape of perfbench's Dublin lineage.
func lineageDublin(tb testing.TB) *core.Problem {
	tb.Helper()
	city, err := citygen.Dublin(2016)
	if err != nil {
		tb.Fatal(err)
	}
	routes, err := citygen.GenerateRoutes(city, citygen.DefaultDemand(), 2016)
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := citygen.RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Problem{Graph: city.Graph, Shop: fl[0].Path[len(fl[0].Path)/2], Flows: fs, Utility: utility.Linear{D: 20_000}, K: 10}
}

// BenchmarkApplyCopyDrift times an 8-op volume drift by ApplyCopy on the
// two lineages plan-offline updates: a 100k-node mega city with 10k flows
// and Dublin's bus routes.
func BenchmarkApplyCopyDrift(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    func() *core.Problem
	}{
		{"mega-100k", func() *core.Problem { return lineageMega(b, 100_000, 10_000) }},
		{"dublin", func() *core.Problem { return lineageDublin(b) }},
	} {
		p := bc.p()
		e, err := core.NewEngine(p)
		if err != nil {
			b.Fatal(err)
		}
		ops := volumeDrift(p, 1)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.ApplyCopy(ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestApplyCopyAllocBound pins copy-on-write by page: an 8-op volume drift
// on a 20k-node mega city may allocate the gain pages its flows' visits
// sit on (rounded up to the allocator's size classes, at most 1/8 more),
// the shard's page table and page bitset, the flow-list copy the new flow
// set takes over, and a fixed overhead — not the shard's whole gain arena.
func TestApplyCopyAllocBound(t *testing.T) {
	p := lineageMega(t, 20_000, 2_000)
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	ops := volumeDrift(p, 1)

	flows := make([]int, len(ops))
	for i, op := range ops {
		flows[i] = op.Flow
	}
	pages, pageBytes, tableBytes := core.GainPagesOf(e, flows)
	flowBytes := uint64(p.Flows.Len()) * uint64(unsafe.Sizeof(flow.Flow{}))
	const fixed = 16 << 10 // touched list, shard headers, problem and set headers
	limit := pageBytes + pageBytes/8 + tableBytes + flowBytes + fixed

	run := func() {
		if _, _, err := e.ApplyCopy(ops); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per ApplyCopy; bound %d = %d B in %d pages + %d B page table + %d B flows + %d",
		got, limit, pageBytes, pages, tableBytes, flowBytes, fixed)
	if got > limit {
		t.Errorf("ApplyCopy allocates %d B per 8-op drift, want <= %d", got, limit)
	}
}

// TestApplyCopyLineageBound follows a lineage of 8-op ApplyCopy volume
// drifts of random flows on a 20k-node mega city, each engine derived from
// the one before. Clones accumulate along it, so after every generation
// no shard's page table may hold clones of half its gains or more: there
// the shard is flattened, and what an engine keeps alive beyond its
// ArenaBytes charge stays below half a gain arena plus its table. The
// lineage must flatten a shard at least once, and every tenth engine must
// fingerprint as a fresh build of its problem.
func TestApplyCopyLineageBound(t *testing.T) {
	p := lineageMega(t, 20_000, 2_000)
	e, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	prev, _ := core.ClonedGains(e)
	flattened, peak := 0, 0.0
	for gen := 1; gen <= 40; gen++ {
		ops := make([]core.FlowUpdate, 0, 8)
		for _, f := range rng.Perm(p.Flows.Len())[:8] {
			vol := p.Flows.At(f).Volume * (0.25 + 2.75*rng.Float64())
			ops = append(ops, core.FlowUpdate{Op: core.OpSetVolume, Flow: f, Volume: vol})
		}
		if e, _, err = e.ApplyCopy(ops); err != nil {
			t.Fatal(err)
		}
		if p, err = core.ApplyToProblem(p, ops); err != nil {
			t.Fatal(err)
		}
		cloned, total := core.ClonedGains(e)
		for si := range cloned {
			if 2*cloned[si] >= total[si] {
				t.Fatalf("generation %d: shard %d holds %d cloned gains of %d, want under half", gen, si, cloned[si], total[si])
			}
			if cloned[si] < prev[si] {
				flattened++
			}
			peak = max(peak, float64(cloned[si])/float64(total[si]))
		}
		prev = cloned
		if gen%10 != 0 {
			continue
		}
		fresh, err := core.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Fingerprint(), fresh.Fingerprint(); got != want {
			t.Fatalf("generation %d: fingerprint %#x, fresh build %#x", gen, got, want)
		}
	}
	t.Logf("%d shard flattens; peak clone share %.2f", flattened, peak)
	if flattened == 0 {
		t.Error("no shard was flattened along the lineage; the bound went untested")
	}
}

// BenchmarkSolveChild times the solvers plan-offline runs on a 100k-node
// mega city's lineage: on the engine four ApplyCopy volume drifts derived
// from a build (its shards read gains through page tables) and on a fresh
// build of the same problem (no tables). Each engine's standalone gains
// and Warm are computed before the timer starts.
func BenchmarkSolveChild(b *testing.B) {
	p := lineageMega(b, 100_000, 10_000)
	child, err := core.NewEngine(p)
	if err != nil {
		b.Fatal(err)
	}
	for gen := int64(1); gen <= 4; gen++ {
		ops := volumeDrift(p, gen)
		if child, _, err = child.ApplyCopy(ops); err != nil {
			b.Fatal(err)
		}
		if p, err = core.ApplyToProblem(p, ops); err != nil {
			b.Fatal(err)
		}
	}
	fresh, err := core.NewEngine(p)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		e    *core.Engine
		w    *core.Warm
	}{{"fresh", fresh, fresh.NewWarm()}, {"child", child, child.NewWarm()}}
	for _, sv := range []struct {
		name  string
		solve func(e *core.Engine, w *core.Warm) (*core.Placement, error)
	}{
		{"lazy", func(e *core.Engine, _ *core.Warm) (*core.Placement, error) { return core.GreedyLazy(e) }},
		{"lazy-warm", core.GreedyLazyWarm},
		{"algorithm2", func(e *core.Engine, _ *core.Warm) (*core.Placement, error) { return core.Algorithm2(e) }},
	} {
		for _, en := range engines {
			b.Run(sv.name+"/"+en.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sv.solve(en.e, en.w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
