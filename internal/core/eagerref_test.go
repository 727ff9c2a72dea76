package core

// eagerGreedyReference is the eager step loop as it stood before the
// incremental scan: every step evaluates every unplaced candidate against
// the current state, serially and in candidate order. It is the oracle the
// differential tests hold eagerGreedy to, placement for placement and bit
// for bit.
func (e *Engine) eagerGreedyReference(st stepState, rule *stepRule) *Placement {
	k := e.p.K
	placed := e.newPlacedSet()
	result := &Placement{}
	for step := 0; step < k; step++ {
		scan := newScanBest()
		for _, v := range e.cands {
			if !placed.has(v) {
				u, c := st.marginalGain(e, v)
				scan.consider(scanned{node: v, u: u, c: c})
			}
		}
		w, kind := rule.pick(&scan)
		gain := w.u + w.c
		if gain <= 0 {
			break
		}
		placed.add(w.node)
		st.place(e, w.node)
		result.Nodes = append(result.Nodes, w.node)
		result.StepGains = append(result.StepGains, gain)
		if rule.kinds {
			result.StepKinds = append(result.StepKinds, kind)
		}
	}
	result.Attracted = e.Evaluate(result.Nodes)
	return result
}

// EagerSolvers names the eager solvers, in solver-table order, for the
// external differential tests.
var EagerSolvers = []string{"algorithm1", "algorithm2", "combined"}

// EagerReference runs the named eager solver with the every-step full
// rescan of eagerGreedyReference.
func EagerReference(e *Engine, solver string) *Placement {
	switch solver {
	case "algorithm1":
		return e.eagerGreedyReference(&coverState{covered: make([]bool, e.p.Flows.Len())}, coverageRule)
	case "algorithm2":
		return e.eagerGreedyReference(e.newDetourState(), compositeRule)
	case "combined":
		return e.eagerGreedyReference(e.newDetourState(), combinedRule)
	}
	panic("core: no eager solver " + solver)
}
