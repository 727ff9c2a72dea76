package core

import (
	"fmt"

	"roadside/internal/graph"
)

// Warm caches the per-candidate initial upper bounds GreedyLazy computes
// in its init scan: each candidate's marginal gain against the empty state
// (the standalone gain, accumulated in the exact visit order the solver
// uses). After a delta update only candidates on the touched flows' paths
// can have changed, so Refresh re-sums just those and a warm-started
// re-solve skips the full O(candidates × visits) init — on a drifting
// problem that scan is most of the lazy solver's work.
//
// A Warm is tied to the candidate list of the engine family it was built
// from. Flow updates never change the candidate list (candidates come from
// the graph and the problem's restriction, not from flows), so one Warm
// follows an engine through any number of Apply/ApplyCopy steps. It is
// NOT safe for concurrent mutation: Refresh needs exclusive ownership,
// while GreedyLazyWarm only reads and may run concurrently with other
// readers.
type Warm struct {
	gains  []float64 // by position in e.cands: empty-state marginal gain
	pos    []int32   // node - candLo -> position in cands; -1 = not a candidate
	candLo graph.NodeID
}

// NewWarm computes the full initial-bound cache for e. It costs exactly
// one lazy-solver init scan; afterwards Refresh keeps it current in
// O(touched candidates) per update.
func (e *Engine) NewWarm() *Warm {
	w := &Warm{
		gains:  make([]float64, len(e.cands)),
		pos:    make([]int32, e.candSpan),
		candLo: e.candLo,
	}
	for i := range w.pos {
		w.pos[i] = -1
	}
	for i, v := range e.cands {
		w.pos[v-e.candLo] = int32(i)
	}
	w.Refresh(e, e.cands)
	return w
}

// Clone returns an independent copy whose gains can be refreshed without
// affecting the receiver. The node-to-position index is immutable and
// shared.
func (w *Warm) Clone() *Warm {
	return &Warm{
		gains:  append([]float64(nil), w.gains...),
		pos:    w.pos,
		candLo: w.candLo,
	}
}

// Refresh recomputes the cached bounds of every candidate in touched
// against engine e (typically the engine an Apply/ApplyCopy just
// produced, with touched being its reported node set). Nodes that are not
// candidates are skipped; untouched candidates keep their cached value,
// which is bit-identical to a recompute because their visit buckets did
// not change.
func (w *Warm) Refresh(e *Engine, touched []graph.NodeID) {
	st := e.newDetourState()
	for _, v := range touched {
		idx := int(v - w.candLo)
		if idx < 0 || idx >= len(w.pos) {
			continue
		}
		p := w.pos[idx]
		if p < 0 {
			continue
		}
		u, c := st.marginalGain(e, v)
		w.gains[p] = u + c
	}
}

// GreedyLazyWarm is GreedyLazy seeded from a Warm cache instead of the
// init scan. The placement is bit-identical to GreedyLazy(e) provided w is
// current for e (built from or refreshed against it); the delta-identity
// invariant and the serve race battery hold that equivalence together. A
// nil w falls back to the cold solver.
func GreedyLazyWarm(e *Engine, w *Warm) (*Placement, error) {
	if w == nil {
		return GreedyLazy(e)
	}
	if len(w.gains) != len(e.cands) || w.candLo != e.candLo {
		return nil, fmt.Errorf("core: warm cache covers %d candidates from %d, engine has %d from %d",
			len(w.gains), w.candLo, len(e.cands), e.candLo)
	}
	return greedyLazy(e, func(i int) float64 { return w.gains[i] })
}
