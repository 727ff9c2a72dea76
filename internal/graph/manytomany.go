package graph

import (
	"errors"
	"fmt"
	"math"
	"time"

	"roadside/internal/obs"
	"roadside/internal/par"
)

// Many-to-many shortest paths.
//
// The placement engine's preprocessing needs d(v -> dest) for every node v
// on a flow's path, per distinct destination — a many-to-many problem whose
// rectangle is tiny compared to the full tree fan-out graph.Trees runs
// (one complete reverse Dijkstra per destination, O(n) memory per tree).
// This file implements a bucket-based many-to-many pass in the spirit of
// Knopp et al. / PHAST, adapted to this repository's hard determinism
// contract: every returned distance must be Float64bits-identical to the
// per-destination Dijkstra it replaces.
//
// That contract rules out the textbook contraction-hierarchy realization:
// CH shortcuts carry pre-summed weights, so a distance assembled from
// shortcut halves is the same real number summed in a different order —
// off by an ulp from the Dijkstra fixpoint, and road lattices are full of
// exact ties that make the divergence observable. Instead of re-associated
// shortcut sums, the pass keeps the label-setting relaxation order of
// Dijkstra itself and takes its speedup from three sources:
//
//   - source buckets: each search knows exactly which nodes it owes answers
//     to and how many are still unsettled, so the backward search from a
//     target stops the moment the last owed source settles (the search ball
//     is the smallest one containing the sources, not the whole graph);
//   - epoch-stamped scratch: distance/visited state is shared across all
//     searches a worker runs and invalidated O(1) per search by bumping an
//     epoch, so per-search cost is proportional to the ball actually
//     explored, never to n (a full per-tree O(n) reinitialization is what
//     makes the Trees fan-out quadratic-feeling at scale);
//   - a Trees-equivalent dense fallback: when a group's sources cover most
//     of the graph there is nothing to prune, so the search runs to heap
//     exhaustion without settle-counting overhead — bit-identical either
//     way, cheaper on dense rectangles.
//
// A node settles at most once per search (weights are strictly positive and
// the lazy-deletion heap pops non-stale labels in nondecreasing order), and
// a settled label is final and equal to the full-Dijkstra fixpoint value,
// so early termination never changes a reported bit. The differential
// tests and the many-to-many-identity soak invariant pin exactly this.

// ErrRectTooLarge reports a many-to-many rectangle whose dense distance
// matrix would exceed the byte budget, mirroring core.ErrArenaOverflow:
// fail loudly and descriptively instead of attempting the allocation.
var ErrRectTooLarge = errors.New("graph: many-to-many rectangle exceeds byte budget")

// maxRectBytes bounds the dense |sources| x |targets| float64 matrix
// ManyToMany allocates. Grouped queries (ManyToManyGrouped) are bounded by
// their callers instead: each group's output is one row per source.
const maxRectBytes = 2 << 30

// denseFallbackNum/denseFallbackDen: when a group's distinct sources cover
// at least 3/4 of the graph, the pruned search degenerates to a full one,
// so skip the settle-counting and run plain Dijkstra to exhaustion.
const (
	denseFallbackNum = 3
	denseFallbackDen = 4
)

// M2MGroup is one many-to-many unit of work: distances from every source to
// the single target. Grouping by target matches the engine's preprocessing
// shape, where all flows sharing a destination pool their path nodes.
type M2MGroup struct {
	// Target is the destination the backward search runs from.
	Target NodeID
	// Sources are the nodes whose distance to Target is requested.
	// Duplicates are allowed and each position gets its answer.
	Sources []NodeID
}

// Rect is a dense (source x target) shortest-path distance rectangle: the
// distance matrix restricted to the query sets.
type Rect struct {
	sources []NodeID
	targets []NodeID
	dist    []float64 // row-major: len(sources) x len(targets)
}

// NumSources returns the rectangle's row count.
func (r *Rect) NumSources() int { return len(r.sources) }

// NumTargets returns the rectangle's column count.
func (r *Rect) NumTargets() int { return len(r.targets) }

// Dist returns the shortest-path distance from the i-th source to the j-th
// target, +Inf when unreachable. Indices follow the query slices passed to
// ManyToMany.
func (r *Rect) Dist(i, j int) float64 { return r.dist[i*len(r.targets)+j] }

// Source returns the i-th source node of the query.
func (r *Rect) Source(i int) NodeID { return r.sources[i] }

// Target returns the j-th target node of the query.
func (r *Rect) Target(j int) NodeID { return r.targets[j] }

// ManyToMany computes the shortest-path distance rectangle between sources
// and targets, fanning one pruned backward search per distinct target
// across at most workers goroutines. Distances are bit-identical to running
// a full reverse Dijkstra per target (graph.Trees) and reading the same
// pairs. Empty source or target sets yield an empty rectangle.
func (g *Graph) ManyToMany(sources, targets []NodeID, workers int) (*Rect, error) {
	for i, s := range sources {
		if !g.ValidNode(s) {
			return nil, fmt.Errorf("%w: source %d node %d", ErrNodeRange, i, s)
		}
	}
	cells := int64(len(sources)) * int64(len(targets))
	if bytes := cells * 8; bytes > maxRectBytes || bytes < 0 {
		return nil, fmt.Errorf("%w: %d sources x %d targets needs %d bytes, budget %d",
			ErrRectTooLarge, len(sources), len(targets), bytes, int64(maxRectBytes))
	}
	r := &Rect{
		sources: append([]NodeID(nil), sources...),
		targets: append([]NodeID(nil), targets...),
		dist:    make([]float64, cells),
	}
	if len(sources) == 0 || len(targets) == 0 {
		return r, nil
	}
	// Ordering preprocessing: deduplicate targets so a repeated column is
	// searched once and copied, then run the distinct groups.
	firstCol := make(map[NodeID]int, len(targets))
	groups := make([]M2MGroup, 0, len(targets))
	order := make([]int, len(targets)) // column -> group index
	for j, t := range targets {
		gi, ok := firstCol[t]
		if !ok {
			gi = len(groups)
			firstCol[t] = gi
			groups = append(groups, M2MGroup{Target: t, Sources: sources})
		}
		order[j] = gi
	}
	cols, err := g.ManyToManyGrouped(groups, workers)
	if err != nil {
		return nil, err
	}
	for j := range targets {
		col := cols[order[j]]
		for i := range sources {
			r.dist[i*len(targets)+j] = col[i]
		}
	}
	return r, nil
}

// ManyToManyGrouped computes, for each group, the shortest-path distance
// from every group source to the group target. The result is indexed like
// the input: out[i][k] is the distance from groups[i].Sources[k] to
// groups[i].Target, +Inf when unreachable. This is the primitive the
// placement engine consumes — flows pooled by destination — and the shape
// under which the pruned searches win: each search explores only the ball
// spanning its own sources.
//
// Distances are Float64bits-identical to a full reverse Dijkstra per
// target; the output depends only on the groups, never on workers.
func (g *Graph) ManyToManyGrouped(groups []M2MGroup, workers int) ([][]float64, error) {
	for i, grp := range groups {
		if !g.ValidNode(grp.Target) {
			return nil, fmt.Errorf("%w: group %d target %d", ErrNodeRange, i, grp.Target)
		}
		for k, s := range grp.Sources {
			if !g.ValidNode(s) {
				return nil, fmt.Errorf("%w: group %d source %d node %d", ErrNodeRange, i, k, s)
			}
		}
	}
	out := make([][]float64, len(groups))
	if len(groups) == 0 {
		return out, nil
	}
	start := time.Now()
	var settled int64
	// Contiguous chunks, one long-lived scratch per chunk: every group
	// writes only its own out slot, so the output is identical to a serial
	// run regardless of scheduling.
	chunks := par.Chunks(len(groups), effectiveWorkers(workers, len(groups)))
	settledPer := make([]int64, len(chunks))
	par.Do(len(chunks), len(chunks), func(ci int) {
		sc := newM2MScratch(g.NumNodes())
		for gi := chunks[ci][0]; gi < chunks[ci][1]; gi++ {
			out[gi] = sc.search(g, groups[gi])
			settledPer[ci] += int64(sc.lastSettled)
		}
	})
	for _, s := range settledPer {
		settled += s
	}
	obs.Default().Phase(obs.Phase{
		Component: "graph.m2m", Name: "grouped",
		Items: int(settled), Workers: len(chunks),
		Start: start, Duration: time.Since(start),
	})
	return out, nil
}

// effectiveWorkers clamps a requested worker count to [1, n].
func effectiveWorkers(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	return workers
}

// m2mScratch is the per-worker search state shared across all searches a
// worker runs. Arrays are epoch-stamped: bumping epoch invalidates every
// distance and source mark in O(1), so a search touching b nodes costs
// O(b log b), independent of the graph size.
type m2mScratch struct {
	dist     []float64 // valid iff stamp matches epoch
	stamp    []uint32
	srcStamp []uint32 // marks the current group's distinct source nodes
	epoch    uint32
	heap     *distHeap
	// lastSettled reports how many nodes the previous search settled,
	// for the phase event's work accounting.
	lastSettled int
}

func newM2MScratch(n int) *m2mScratch {
	return &m2mScratch{
		dist:     make([]float64, n),
		stamp:    make([]uint32, n),
		srcStamp: make([]uint32, n),
		heap:     newDistHeap(64),
	}
}

// nextEpoch advances the scratch epoch, re-zeroing the stamp arrays on the
// (astronomically rare) uint32 wraparound so stale stamps can never alias.
func (sc *m2mScratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
			sc.srcStamp[i] = 0
		}
		sc.epoch = 1
	}
}

// search runs one pruned backward Dijkstra from grp.Target and returns the
// distances aligned with grp.Sources.
func (sc *m2mScratch) search(g *Graph, grp M2MGroup) []float64 {
	res := make([]float64, len(grp.Sources))
	sc.lastSettled = 0
	if len(grp.Sources) == 0 {
		return res
	}
	sc.nextEpoch()
	epoch := sc.epoch

	// Bucket pass: mark the distinct source nodes this search owes answers
	// to. remaining counts distinct nodes, so duplicate query positions
	// cost nothing extra.
	remaining := 0
	for _, s := range grp.Sources {
		if sc.srcStamp[s] != epoch {
			sc.srcStamp[s] = epoch
			remaining++
		}
	}
	// Dense fallback: with sources covering most of the graph the pruned
	// search would settle nearly everything anyway — run to exhaustion
	// without per-settle bookkeeping (Trees-equivalent, identical bits).
	countDown := remaining*denseFallbackDen < g.NumNodes()*denseFallbackNum

	dist, stamp := sc.dist, sc.stamp
	h := sc.heap
	h.reset()
	dist[grp.Target] = 0
	stamp[grp.Target] = epoch
	h.push(grp.Target, 0)
	settled := 0
	for h.len() > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		settled++
		if countDown && sc.srcStamp[u] == epoch {
			remaining--
			if remaining == 0 {
				break
			}
		}
		g.ForEachIn(u, func(v NodeID, w float64) bool {
			nd := d + w
			if stamp[v] != epoch || nd < dist[v] {
				dist[v] = nd
				stamp[v] = epoch
				h.push(v, nd)
			}
			return true
		})
	}
	sc.lastSettled = settled
	for i, s := range grp.Sources {
		if stamp[s] == epoch {
			res[i] = dist[s]
		} else {
			res[i] = math.Inf(1)
		}
	}
	return res
}
