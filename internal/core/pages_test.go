package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// cowFixture is a random problem plus flows laid along the graph's ring
// edges (randomProblem links node i to i+1) so that they cross gain-page
// boundaries: each visits the last node of one page and the first node of
// the next, and one ends on the graph's last node. It returns the indices
// of those flows.
func cowFixture(t *testing.T) (*Problem, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	const nodes = 16*gainPageNodes + 11 // a short last page
	p := randomProblem(t, rng, nodes, 30, 4, utility.Linear{D: 60})
	fl := p.Flows.Flows()
	var edge []int
	for _, path := range [][]graph.NodeID{
		{gainPageNodes - 2, gainPageNodes - 1, gainPageNodes},
		{gainPageNodes - 1, gainPageNodes, gainPageNodes + 1},
		{3*gainPageNodes - 1, 3 * gainPageNodes},
		{nodes - 3, nodes - 2, nodes - 1},
		{nodes - 1, 0, 1},
	} {
		f, err := flow.New("", path, 5+rng.Float64()*50, 0.5+rng.Float64()/2)
		if err != nil {
			t.Fatal(err)
		}
		edge = append(edge, len(fl))
		fl = append(fl, f)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		t.Fatal(err)
	}
	p.Flows = fs
	return p, edge
}

// sharedPages counts the non-empty gain pages of a's first shard that are
// b's very pages, and the non-empty pages in all.
func sharedPages(a, b *Engine) (shared, pages int) {
	sa, sb := &a.shards[0], &b.shards[0]
	for p := range sa.numGainPages() {
		pa, pb := sa.gainPage(p), sb.gainPage(p)
		if len(pa) == 0 {
			continue
		}
		pages++
		if len(pb) > 0 && &pa[0] == &pb[0] {
			shared++
		}
	}
	return shared, pages
}

// TestApplyCopyPageIsolation races copy-on-write children against solves
// of their parent. While goroutines run all four solvers on the parent,
// ApplyCopy children, and a grandchild of each, write:
//   - sparse volume drifts onto the same gain pages, a page's first and
//     last nodes among them, on pages that also hold empty buckets (these
//     clone by page);
//   - a drift of every flow (it clones pages until they would hold half
//     the shard's gains, then flattens the shard);
//   - batches with an add or a remove (they rebuild the shard).
//
// The parent's fingerprint and placements must not move, and every
// derived engine must equal a fresh build of its problem at Float64bits.
// Under -race this also fails on any write to a shared page.
func TestApplyCopyPageIsolation(t *testing.T) {
	p, edge := cowFixture(t)
	parent, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if parent.NumShards() != 1 {
		t.Fatalf("fixture built %d shards, want 1", parent.NumShards())
	}
	n, nf := p.Graph.NumNodes(), p.Flows.Len()

	// The fixture must exercise what the test claims: the drifted pages
	// hold a page's first and last node and at least one empty bucket.
	sh := &parent.shards[0]
	var first, last, empty bool
	for _, f := range edge {
		lo, hi := sh.flowRange(f)
		for _, v := range sh.flowNode[lo:hi] {
			first = first || int(v)%gainPageNodes == 0
			last = last || int(v)%gainPageNodes == gainPageNodes-1 || int(v) == n-1
			pg := int(v) >> gainPageShift
			for u := pg << gainPageShift; u < min((pg+1)<<gainPageShift, n); u++ {
				if b, be := sh.visitRange(graph.NodeID(u)); b == be {
					empty = true
				}
			}
		}
	}
	if !first || !last || !empty {
		t.Fatalf("fixture misses a case: first node %v, last node %v, empty bucket %v", first, last, empty)
	}

	solvers := []string{"algorithm1", "algorithm2", "combined", "lazy"}
	want := map[string]*Placement{}
	for _, name := range solvers {
		s, _ := LookupSolver(name)
		if want[name], err = s.SolveWorkers(parent, 1); err != nil {
			t.Fatal(err)
		}
	}
	fp := parent.Fingerprint()

	rng := rand.New(rand.NewSource(7))
	drift := func(flows []int) []FlowUpdate {
		ops := make([]FlowUpdate, 0, len(flows))
		for _, f := range flows {
			ops = append(ops, FlowUpdate{Op: OpSetVolume, Flow: f, Volume: 1 + rng.Float64()*99})
		}
		return ops
	}
	sparse := func() []FlowUpdate { return drift(edge) }
	every := make([]int, nf)
	for f := range every {
		every[f] = f
	}
	const sparseChildren, dense = 4, 4
	batches := make([][][]FlowUpdate, 7) // per child: its batch, then its grandchild's
	for c := range batches {
		batches[c] = [][]FlowUpdate{sparse(), sparse()}
	}
	batches[dense][0] = drift(every)
	add, err := flow.New("added", []graph.NodeID{2*gainPageNodes - 1, 2 * gainPageNodes}, 40, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	batches[5][0] = append([]FlowUpdate{{Op: OpAddFlow, Add: add}}, batches[5][0]...)
	batches[6][1] = append(batches[6][1], FlowUpdate{Op: OpRemoveFlow, Flow: edge[1]})

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(solvers)+len(batches))
	for rep := 0; rep < 4; rep++ {
		for _, name := range solvers {
			s, _ := LookupSolver(name)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := s.SolveWorkers(parent, 2)
				if err == nil {
					err = SamePlacement(got, want[name])
				}
				if err != nil {
					errs <- fmt.Errorf("parent %s: %w", name, err)
				}
			}()
		}
	}
	derived := make([][]*Engine, len(batches))
	for c := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := parent
			for _, ops := range batches[c] {
				next, _, err := e.ApplyCopy(ops)
				if err != nil {
					errs <- fmt.Errorf("child %d: %w", c, err)
					return
				}
				derived[c] = append(derived[c], next)
				e = next
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := parent.Fingerprint(); got != fp {
		t.Fatalf("parent fingerprint %#x -> %#x", fp, got)
	}

	// Each copy path ran: the sparse children cloned some pages and share
	// the rest, the dense one flattened its shard.
	for c := 0; c < sparseChildren; c++ {
		if shared, pages := sharedPages(derived[c][0], parent); shared == 0 || shared == pages {
			t.Errorf("sparse child %d shares %d of %d gain pages, want some but not all", c, shared, pages)
		}
	}
	if d := &derived[dense][0].shards[0]; d.gainPages != nil || &d.visitGain[0] == &parent.shards[0].visitGain[0] {
		t.Errorf("dense child keeps a page table (%v) or its parent's gains, want a flat copy of its own", d.gainPages != nil)
	}

	for c, chain := range derived {
		q := p
		for g, e := range chain {
			if q, err = ApplyToProblem(q, batches[c][g]); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewEngine(q)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("child%d/gen%d", c, g+1), func(t *testing.T) { assertDeltaMatchesFresh(t, e, fresh) })
		}
	}
	for _, name := range solvers {
		s, _ := LookupSolver(name)
		got, err := s.SolveWorkers(parent, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertPlacementsEqual(t, "parent "+name+" after", got, want[name])
	}
}
