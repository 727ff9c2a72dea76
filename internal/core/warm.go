package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"roadside/internal/graph"
)

// Every greedy of the paper starts from each candidate's standalone gain:
// its marginal gain against the empty placement, accumulated in the exact
// visit order the solvers use. An engine computes that vector at most
// once, by whichever of GreedyLazy's init, the step-0 scan of Algorithm 2
// or GreedyCombined (which evaluates every pair anyway) or NewWarm asks
// first; it is the lazy solver's CELF-style initial upper bound.
//
// Inheritance rule: a flow update changes only the visit buckets of the
// nodes it reports as touched, so every other candidate's standalone gain
// is bit-identical before and after. ApplyCopy therefore hands the child
// the parent's vector, when it has been computed, plus the touched nodes,
// and the child derives its vector on first use by copying and re-scoring
// only the touched candidates' positions. A child of a parent whose vector
// was never computed starts from nothing.
//
// Warm is the exported handle on the same values: an owned copy that a
// caller can Clone and Refresh across updates itself.

// standalone is an engine's standalone-gain vector. WithBudget and
// WithObserver copies share it by pointer. Readers of a computed vector
// take one atomic load; mu serializes the one computation against
// concurrent first solves.
type standalone struct {
	gains atomic.Pointer[[]float64] // by position in e.cands; nil until computed

	mu sync.Mutex
	// base and touched derive gains on first use when set: base is the
	// parent engine's computed vector, touched the sorted distinct nodes
	// whose visit buckets the update changed. Guarded by mu.
	base    []float64
	touched []graph.NodeID
}

// candIndex maps a candidate node to its positions in e.cands, for the
// eager scans' re-scoring and the standalone gains' re-derivation. Flow
// updates never change the candidate list, so one index serves a whole
// engine family. The default list, every node in ID order, needs no table:
// a node's position is its ID. An explicit list's table is built on first
// use.
type candIndex struct {
	ident bool // e.cands is every node in ID order
	once  sync.Once
	first []int32 // node - candLo -> first position, -1 if not a candidate
	next  []int32 // position -> next position holding the same node, -1 at the last; nil without repeats
}

// standaloneGains returns the engine's vector, computing it on first use.
// The slice is shared and must not be modified.
func (e *Engine) standaloneGains() []float64 {
	s := e.sa
	if g := s.gains.Load(); g != nil {
		return *g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g := s.gains.Load(); g != nil {
		return *g
	}
	var g []float64
	if s.base != nil {
		g = slices.Clone(s.base)
		e.rescoreStandalone(g, e.ci, s.touched)
	} else {
		g = e.scanStandalone(defaultWorkers())
	}
	s.publish(g)
	return g
}

// publish stores the computed vector and drops the derivation inputs; the
// caller holds s.mu.
func (s *standalone) publish(g []float64) {
	s.gains.Store(&g)
	s.base, s.touched = nil, nil
}

// offerStandalone publishes a step-0 eager scan's pairs, each a
// candidate's (uncovered, covered) gain against the empty state, as the
// vector unless it has been computed already.
func (e *Engine) offerStandalone(u, c []float64) {
	s := e.sa
	if s.gains.Load() != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gains.Load() == nil {
		g := make([]float64, len(u))
		for p := range g {
			g[p] = u[p] + c[p]
		}
		s.publish(g)
	}
}

// inherit is the vector state a child engine starts from after an update
// touching the sorted distinct nodes touched: the parent's vector to derive
// from when it has been computed, else nothing.
func (s *standalone) inherit(touched []graph.NodeID) *standalone {
	if g := s.gains.Load(); g != nil {
		return &standalone{base: *g, touched: slices.Clone(touched)}
	}
	return &standalone{}
}

// scanStandalone computes every candidate's standalone gain, fanning
// blocks of positions across workers as the eager step-0 scan does. Each
// position is written once from a read-only empty state, so the vector is
// bit-identical at any worker count.
func (e *Engine) scanStandalone(workers int) []float64 {
	n := len(e.cands)
	gains := make([]float64, n)
	st := e.newDetourState()
	fanBlocks(n, workers, func(_, b0, b1 int) {
		for p := b0 * scanBlock; p < min(b1*scanBlock, n); p++ {
			u, c := st.marginalGain(e, e.cands[p])
			gains[p] = u + c
		}
	})
	return gains
}

// rescoreStandalone recomputes, against engine e, the standalone gain at
// every position ix lists for the nodes in touched. Non-candidates are
// skipped; every other position keeps its value, which is bit-identical
// to a recompute because its visit bucket did not change.
func (e *Engine) rescoreStandalone(gains []float64, ix *candIndex, touched []graph.NodeID) {
	ix.build(e)
	st := e.newDetourState()
	for _, v := range touched {
		p := ix.firstPos(e, v)
		if p < 0 {
			continue
		}
		u, c := st.marginalGain(e, v)
		for ; p >= 0; p = ix.nextPos(p) {
			gains[p] = u + c
		}
	}
}

// firstPos returns node v's first position in e.cands, or -1 if v is not
// a candidate.
func (ix *candIndex) firstPos(e *Engine, v graph.NodeID) int32 {
	i := int(v - e.candLo)
	switch {
	case ix.ident && i >= 0 && i < len(e.cands):
		return int32(i)
	case ix.ident || i < 0 || i >= len(ix.first):
		return -1
	}
	return ix.first[i]
}

// build fills the table of an explicit candidate list on first use.
func (ix *candIndex) build(e *Engine) {
	if ix.ident {
		return
	}
	ix.once.Do(func() {
		ix.first = make([]int32, e.candSpan)
		for i := range ix.first {
			ix.first[i] = -1
		}
		for p := len(e.cands) - 1; p >= 0; p-- {
			i := e.cands[p] - e.candLo
			if ix.first[i] >= 0 && ix.next == nil {
				ix.next = make([]int32, len(e.cands))
				for q := range ix.next {
					ix.next[q] = -1
				}
			}
			if ix.next != nil {
				ix.next[p] = ix.first[i]
			}
			ix.first[i] = int32(p)
		}
	})
}

func (ix *candIndex) nextPos(p int32) int32 {
	if ix.next == nil {
		return -1
	}
	return ix.next[p]
}

// Warm is an owned copy of an engine's standalone-gain vector for callers
// that carry the lazy solver's initial bounds across updates themselves:
// Refresh re-scores the candidates an update touched, and GreedyLazyWarm
// starts from the copy instead of the engine's own vector. A Warm follows
// its engine family through any number of ApplyCopy steps, since
// flow updates never change the candidate list. It is NOT safe for
// concurrent mutation: Refresh needs exclusive ownership, while
// GreedyLazyWarm only reads.
type Warm struct {
	gains  []float64 // by position in e.cands: empty-state marginal gain
	ix     *candIndex
	candLo graph.NodeID
}

// NewWarm returns an owned copy of e's standalone-gain vector, computing
// the vector first if no solver has.
func (e *Engine) NewWarm() *Warm {
	return &Warm{gains: slices.Clone(e.standaloneGains()), ix: e.ci, candLo: e.candLo}
}

// Clone returns an independent copy whose gains can be refreshed without
// affecting the receiver. The node-to-position index is immutable and
// shared.
func (w *Warm) Clone() *Warm {
	return &Warm{gains: slices.Clone(w.gains), ix: w.ix, candLo: w.candLo}
}

// Refresh recomputes the cached bounds of every candidate in touched
// against engine e (typically the engine an ApplyCopy just produced, with
// touched being its reported node set). Nodes that are not candidates are
// skipped; untouched candidates keep their cached value. A Warm of another
// candidate list is left as it is.
func (w *Warm) Refresh(e *Engine, touched []graph.NodeID) {
	if len(w.gains) != len(e.cands) || w.candLo != e.candLo {
		return // another candidate list; GreedyLazyWarm rejects the pair
	}
	e.rescoreStandalone(w.gains, w.ix, touched)
}

// GreedyLazyWarm is GreedyLazy seeded from a Warm cache instead of the
// engine's vector. The placement is bit-identical to GreedyLazy(e)
// provided w is current for e (built from or refreshed against it); the
// delta-identity invariant and the serve race battery hold that
// equivalence together. A nil w falls back to GreedyLazy.
func GreedyLazyWarm(e *Engine, w *Warm) (*Placement, error) {
	if w == nil {
		return GreedyLazy(e)
	}
	if len(w.gains) != len(e.cands) || w.candLo != e.candLo {
		return nil, fmt.Errorf("core: warm cache covers %d candidates from %d, engine has %d from %d",
			len(w.gains), w.candLo, len(e.cands), e.candLo)
	}
	return greedyLazy(e, w.gains)
}
