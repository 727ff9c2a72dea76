package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"roadside/internal/graph"
	"roadside/internal/obs"
	"roadside/internal/par"
)

// Sharded CSR arenas.
//
// The engine's incidence data used to live in one pair of flat CSR arenas
// whose int32 offsets capped the total visit count at 2^31-1 — past that,
// construction died with ErrArenaOverflow. Instances are now built as a
// sequence of shards: each shard owns a contiguous global flow range and a
// complete pair of int32-offset arenas for exactly those flows. Offsets
// stay int32 (the per-shard visit count is budgeted), while the instance
// as a whole can hold arbitrarily many visits.
//
// Bit-identity is preserved by construction: visitFlow stores *global*
// flow indices, shards are ordered by flow range, and every per-node scan
// walks the shards in order — concatenating a node's per-shard buckets
// yields exactly the ascending-flow visit order of the old single arena,
// so gain accumulation sums in the same order and a single-shard engine is
// byte-for-byte the old layout (the fingerprint tests pin this).
//
// Construction is streamed: per-flow visit counts are known before any
// detour math runs, so shard boundaries are fixed up front and each
// shard's intermediate buffers are released before the next shard builds.
// Peak transient memory is one shard, not the whole instance.

// arenaShard holds the CSR arenas for the contiguous flow range
// [flowLo, flowHi).
type arenaShard struct {
	flowLo, flowHi int32

	// Visit arena, indexed by node: flows of this shard passing through
	// node v occupy visitOff[v]..visitOff[v+1], ordered by ascending
	// (global) flow index.
	visitOff    []int32
	visitFlow   []int32   // global flow index of each visit
	visitDetour []float64 // detour distance at the node for that flow
	visitGain   []float64 // Utility.Prob(detour, alpha) [* model weight] * Volume, precomputed; see gainPages
	visitRem    []float64 // 1 - visit probability; only under ComposeIndependent models, else nil

	// gainPages overrides visitGain by page of gainPageNodes nodes. It is
	// nil on a built engine. ApplyCopy, instead of writing visitGain,
	// which the receiver shares, gives the child a table whose entry p is
	// either nil (page p is read from visitGain) or a clone of page p: the
	// gains of the visits of nodes [p*gainPageNodes, (p+1)*gainPageNodes),
	// from visit visitOff[p*gainPageNodes] on (see DESIGN.md §3.24).
	gainPages [][]float64

	// Flow arena, indexed by f-flowLo: the distinct nodes of flow f's path
	// occupy flowOff[f-flowLo]..flowOff[f-flowLo+1], sorted by node ID.
	flowOff    []int32
	flowNode   []graph.NodeID
	flowDetour []float64
}

// visitRange returns the shard's visit-arena bounds for node v; nodes
// outside the graph have an empty range.
func (sh *arenaShard) visitRange(v graph.NodeID) (int32, int32) {
	if v < 0 || int(v)+1 >= len(sh.visitOff) {
		return 0, 0
	}
	return sh.visitOff[v], sh.visitOff[v+1]
}

// gainPageShift sets the gain arena's page size, gainPageNodes nodes. A
// volume drift writes the buckets of its flows' path nodes, scattered over
// the graph, so a small page copies little beyond them; every page costs a
// 24-byte entry in each derived engine's page table. 32 nodes was chosen
// by measurement on a 100k-node mega city (DESIGN.md §3.24).
const (
	gainPageShift = 5
	gainPageNodes = 1 << gainPageShift
)

// numGainPages is the number of gain pages over the shard's nodes.
func (sh *arenaShard) numGainPages() int {
	return (len(sh.visitOff) - 1 + gainPageNodes - 1) >> gainPageShift
}

// gainPage returns gain page p: its clone when the engine holds one, else
// its span of visitGain.
func (sh *arenaShard) gainPage(p int) []float64 {
	if sh.gainPages != nil && sh.gainPages[p] != nil {
		return sh.gainPages[p]
	}
	n := len(sh.visitOff) - 1
	return sh.visitGain[sh.visitOff[p<<gainPageShift]:sh.visitOff[min((p+1)<<gainPageShift, n)]]
}

// flattenGains replaces the shard's gains by one flat array of its own,
// read page by page, and drops the page table.
func (sh *arenaShard) flattenGains() {
	flat := make([]float64, 0, len(sh.visitFlow))
	for p := range sh.numGainPages() {
		flat = append(flat, sh.gainPage(p)...)
	}
	sh.visitGain, sh.gainPages = flat, nil
}

// gainsAt returns node v's visit gains, aligned with visitFlow[lo:hi] for
// (lo, hi) = visitRange(v): visitGain[lo:hi], as before pages, unless the
// shard holds a clone of v's page. It inlines with no call, so a scan pays
// one nil test per (candidate, shard) on a shard without a page table and
// one table load more on one with a table, never anything per visit.
func (sh *arenaShard) gainsAt(v graph.NodeID, lo, hi int32) []float64 {
	if sh.gainPages != nil {
		if page := sh.gainPages[v>>gainPageShift]; page != nil {
			base := sh.visitOff[v&^(gainPageNodes-1)]
			return page[lo-base : hi-base]
		}
	}
	return sh.visitGain[lo:hi]
}

// flowRange returns the shard's flow-arena bounds for global flow index f,
// which must lie in [flowLo, flowHi).
func (sh *arenaShard) flowRange(f int) (int, int) {
	lf := f - int(sh.flowLo)
	return int(sh.flowOff[lf]), int(sh.flowOff[lf+1])
}

// shardIndexForFlow returns the index of the shard owning global flow
// index f. Shards cover [0, numFlows) contiguously, so the binary search
// always lands.
func (e *Engine) shardIndexForFlow(f int) int {
	return sort.Search(len(e.shards), func(i int) bool { return int(e.shards[i].flowHi) > f })
}

// shardForFlow returns the shard owning global flow index f.
func (e *Engine) shardForFlow(f int) *arenaShard { return &e.shards[e.shardIndexForFlow(f)] }

// NumShards reports how many arena shards the engine was built with. One
// shard is the common case; large instances split when their visit count
// exceeds the construction budget.
func (e *Engine) NumShards() int { return len(e.shards) }

// shardBounds partitions flows into contiguous shards whose visit counts
// each fit maxShardVisits. A single flow exceeding the budget cannot be
// split and fails with ErrArenaOverflow. The boundaries depend only on the
// counts, never on workers, keeping construction deterministic.
func shardBounds(counts []int, maxShardVisits int) ([][2]int, error) {
	var bounds [][2]int
	start := 0
	var cur int64
	for i, c := range counts {
		if int64(c) > int64(maxShardVisits) {
			return nil, fmt.Errorf("%w: flow %d alone needs %d visit slots, shard budget %d",
				ErrArenaOverflow, i, c, maxShardVisits)
		}
		if cur+int64(c) > int64(maxShardVisits) {
			bounds = append(bounds, [2]int{start, i})
			start, cur = i, 0
		}
		cur += int64(c)
	}
	bounds = append(bounds, [2]int{start, len(counts)})
	return bounds, nil
}

// sortedDistinct sorts nodes in place and drops duplicates.
func sortedDistinct(nodes []graph.NodeID) []graph.NodeID {
	slices.Sort(nodes)
	out := nodes[:0]
	for _, v := range nodes {
		if k := len(out); k == 0 || out[k-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// buildEngine is the sharded, streamed engine constructor behind NewEngine.
// maxShardVisits budgets each shard's visit count (and therefore transient
// construction memory); math.MaxInt32 yields the single-shard fast path for
// every instance the old flat arenas could represent.
func buildEngine(p *Problem, workers, maxShardVisits int) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if maxShardVisits < 1 {
		return nil, fmt.Errorf("core: shard visit budget must be positive, got %d", maxShardVisits)
	}
	if maxShardVisits > math.MaxInt32 {
		maxShardVisits = math.MaxInt32
	}
	// Resolve the objective model up front: Prepare does the model's heavy
	// lifting once (Laplacian solves, demand accumulation) so the per-visit
	// Weight calls in the parallel detour pass are pure lookups.
	comp, weigher, err := resolveModel(p)
	if err != nil {
		return nil, err
	}
	o := obs.Default()
	g := p.Graph
	shops := append([]graph.NodeID{p.Shop}, p.ExtraShops...)

	// Shop trees: per shop the reverse tree d' = dist(v, shop) and forward
	// tree d'' = dist(shop, dest). Only distances are ever read, so the
	// parent arrays are skipped (DistOnly), a third of per-tree memory.
	reqs := make([]graph.TreeReq, 0, 2*len(shops))
	for _, s := range shops {
		reqs = append(reqs,
			graph.TreeReq{Root: s, Reverse: true, DistOnly: true},
			graph.TreeReq{Root: s, Reverse: false, DistOnly: true})
	}
	treeStart := time.Now()
	trees, err := g.Trees(reqs, workers)
	if err != nil {
		return nil, fmt.Errorf("core: preprocessing trees: %w", err)
	}
	o.Phase(obs.Phase{
		Component: "core.engine", Name: "trees",
		Items: len(reqs), Workers: workers,
		Start: treeStart, Duration: time.Since(treeStart),
	})
	toShops := make([]*graph.Tree, len(shops))
	fromShops := make([]*graph.Tree, len(shops))
	for i := range shops {
		toShops[i] = trees[2*i]
		fromShops[i] = trees[2*i+1]
	}

	// Destination groups, in first-appearance order: the d''' = dist(v, dest)
	// rectangle is only needed at the path nodes of the flows sharing that
	// destination, so each distinct destination becomes one many-to-many
	// group — instead of one full O(n) reverse tree per destination. A
	// group's sources are its flows' distinct path nodes concatenated in
	// flow order, so flow i's column values sit at groupPos[i] onward in
	// its own node order and the detour pass reads them by span. The search
	// answers every source position (duplicates included), settles the same
	// distinct nodes as it would for the sorted union, and a distance does
	// not depend on the source list, so every value is the union's bit for
	// bit.
	nf := p.Flows.Len()
	destIdx := make(map[graph.NodeID]int, nf)
	flowGroup := make([]int32, nf)
	var groupDest []graph.NodeID
	for i := 0; i < nf; i++ {
		dest := p.Flows.At(i).Dest
		gi, ok := destIdx[dest]
		if !ok {
			if !g.ValidNode(dest) {
				return nil, fmt.Errorf("core: dest tree %d: %w", dest, graph.ErrNodeRange)
			}
			gi = len(groupDest)
			destIdx[dest] = gi
			groupDest = append(groupDest, dest)
		}
		flowGroup[i] = int32(gi)
	}

	// Per-flow sorted distinct path nodes; independent, so computed in
	// parallel with index-disjoint writes.
	pathNodes := make([][]graph.NodeID, nf)
	counts := make([]int, nf)
	par.Do(nf, workers, func(i int) {
		f := p.Flows.At(i)
		nodes := sortedDistinct(append([]graph.NodeID(nil), f.Path...))
		pathNodes[i] = nodes
		counts[i] = len(nodes)
	})

	groupNodes := make([][]graph.NodeID, len(groupDest))
	groupPos := make([]int, nf)
	for i := 0; i < nf; i++ {
		gi := flowGroup[i]
		groupPos[i] = len(groupNodes[gi])
		groupNodes[gi] = append(groupNodes[gi], pathNodes[i]...)
	}

	m2mGroups := make([]graph.M2MGroup, len(groupDest))
	for gi := range groupDest {
		m2mGroups[gi] = graph.M2MGroup{Target: groupDest[gi], Sources: groupNodes[gi]}
	}
	m2mStart := time.Now()
	cols, err := g.ManyToManyGrouped(m2mGroups, workers)
	if err != nil {
		return nil, fmt.Errorf("core: dest rectangles: %w", err)
	}
	o.Phase(obs.Phase{
		Component: "core.engine", Name: "m2m",
		Items: len(m2mGroups), Workers: workers,
		Start: m2mStart, Duration: time.Since(m2mStart),
	})

	bounds, err := shardBounds(counts, maxShardVisits)
	if err != nil {
		return nil, err
	}

	n := g.NumNodes()
	e := &Engine{
		p:              p,
		shards:         make([]arenaShard, len(bounds)),
		cands:          p.candidateList(),
		obs:            o,
		comp:           comp,
		toShops:        toShops,
		fromShops:      fromShops,
		maxShardVisits: maxShardVisits,
		sa:             &standalone{},
		ci:             &candIndex{ident: len(p.Candidates) == 0},
	}
	if len(e.cands) > 0 {
		lo, hi := e.cands[0], e.cands[0]
		for _, v := range e.cands {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		e.candLo, e.candSpan = lo, int(hi-lo)+1
	}

	u := p.Utility
	for si, b := range bounds {
		lo, hi := b[0], b[1]
		sh := &e.shards[si]
		sh.flowLo, sh.flowHi = int32(lo), int32(hi)
		flowOff, total, err := flowOffsets(counts[lo:hi])
		if err != nil {
			return nil, err
		}
		sh.flowOff = flowOff
		sh.flowNode = make([]graph.NodeID, total)
		sh.flowDetour = make([]float64, total)
		flowGain := make([]float64, total) // transient, scattered then dropped
		var flowRem []float64
		if comp == compIndependent {
			flowRem = make([]float64, total)
		}
		var werrs []error
		if weigher != nil {
			werrs = make([]error, hi-lo) // index-disjoint error slots for the parallel pass
		}

		// Detour pass: each flow fills its own flow-arena span, so the
		// fan-out is index-disjoint and worker-count-independent. d''' comes
		// from the flow's span of its destination group's column.
		detStart := time.Now()
		par.Do(hi-lo, workers, func(k int) {
			i := lo + k
			f := p.Flows.At(i)
			col := cols[flowGroup[i]][groupPos[i]:]
			base := int(flowOff[k])
			for j, v := range pathNodes[i] {
				d := detourValue(toShops, fromShops, v, f.Dest, col[j])
				sh.flowNode[base+j] = v
				sh.flowDetour[base+j] = d
				if weigher == nil {
					flowGain[base+j] = u.Prob(d, f.Alpha) * f.Volume
					continue
				}
				w := weigher.Weight(i, v)
				if math.IsNaN(w) || w < 0 || w > 1 {
					if werrs[k] == nil {
						werrs[k] = fmt.Errorf("core: model %s: Weight(%d, %d) = %v outside [0, 1]",
							p.Model.Name(), i, v, w)
					}
					w = 0
				}
				q := u.Prob(d, f.Alpha) * w
				flowGain[base+j] = q * f.Volume
				if flowRem != nil {
					r := 1 - q
					if r < 0 {
						r = 0 // only reachable if a custom utility breaks Prob <= alpha <= 1
					}
					flowRem[base+j] = r
				}
			}
		})
		for _, werr := range werrs {
			if werr != nil {
				return nil, werr
			}
		}
		o.Phase(obs.Phase{
			Component: "core.engine", Name: "detours",
			Items: hi - lo, Workers: workers,
			Start: detStart, Duration: time.Since(detStart),
		})

		// Serial scatter into the visit arena, iterating flows in index
		// order so each node's bucket is ordered by ascending flow.
		asmStart := time.Now()
		sh.visitOff = make([]int32, n+1)
		for _, v := range sh.flowNode {
			sh.visitOff[v+1]++
		}
		for v := 0; v < n; v++ {
			sh.visitOff[v+1] += sh.visitOff[v]
		}
		sh.visitFlow = make([]int32, total)
		sh.visitDetour = make([]float64, total)
		sh.visitGain = make([]float64, total)
		if flowRem != nil {
			sh.visitRem = make([]float64, total)
		}
		cursor := make([]int32, n)
		for k := 0; k < hi-lo; k++ {
			for idx := int(flowOff[k]); idx < int(flowOff[k+1]); idx++ {
				v := sh.flowNode[idx]
				at := sh.visitOff[v] + cursor[v]
				cursor[v]++
				sh.visitFlow[at] = int32(lo + k)
				sh.visitDetour[at] = sh.flowDetour[idx]
				sh.visitGain[at] = flowGain[idx]
				if flowRem != nil {
					sh.visitRem[at] = flowRem[idx]
				}
			}
		}
		o.Phase(obs.Phase{
			Component: "core.engine", Name: "assemble",
			Items: total, Workers: 1,
			Start: asmStart, Duration: time.Since(asmStart),
		})

		// Streamed release: later shards never touch these flows again.
		for i := lo; i < hi; i++ {
			pathNodes[i] = nil
		}
	}
	return e, nil
}
