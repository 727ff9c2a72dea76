package core

import (
	"errors"
	"fmt"

	"roadside/internal/graph"
)

// Objective models.
//
// The paper's objective is additive coverage: each flow is worth
// Utility.Prob(detour, alpha) * Volume at its single best placed RAP. A
// Problem may optionally carry an ObjectiveModel that reshapes that
// economy — reweighting what a flow is worth at a node (effective
// resistance, data-rate capacity) and/or changing how the value of
// multiple RAPs on one flow composes (probabilistic coverage). Models plug
// in at engine construction: per-visit gains are precomputed exactly as in
// the base engine, so the greedy solvers, warm starts, the exhaustive
// oracle, and the parallel scans all run unmodified on model engines.
//
// Every model must keep the objective monotone submodular — that is the
// contract the solvers' termination rules, GreedyLazy's stale-bound heap,
// and the 1-1/e approximation guarantees rest on, and the invariant
// registry re-checks it per model on randomized instances.

// Composition selects how one flow's value composes across several placed
// RAPs on its path.
type Composition int

const (
	// ComposeBest banks each flow at the single best placed RAP on its
	// path — the paper's rule that redundant advertisements add nothing.
	// With per-visit weights "best" means the largest weighted gain (for
	// the unweighted base objective this coincides with the smallest
	// detour, since utilities are non-increasing).
	ComposeBest Composition = iota
	// ComposeIndependent treats each placed RAP as an independent chance
	// to convert the flow's drivers: a flow covered with probability p_i
	// by RAP i is worth Volume * (1 - Π(1-p_i)). Marginal gains shrink as
	// coverage accumulates, which keeps the objective monotone submodular.
	ComposeIndependent
)

// ObjectiveModel reshapes the placement objective of a Problem. A nil
// Problem.Model is the paper's additive coverage objective, bit-identical
// to engines built before models existed.
type ObjectiveModel interface {
	// Name is a short stable identifier ("probabilistic", "resistance",
	// "capacity"), folded into ProblemDigest so model engines never alias
	// base engines in caches keyed by digest.
	Name() string
	// Params renders the model's parameters as a stable string, also
	// folded into the digest: two models of the same name with different
	// parameters must digest differently.
	Params() string
	// Compose reports how per-RAP values combine along one flow.
	Compose() Composition
	// Prepare is called once per engine construction with the validated
	// problem. It returns the weigher supplying the per-(flow, node)
	// multiplier applied to the base visit gain; preparing is where a
	// model does its heavy lifting (solving the grounded Laplacian,
	// accumulating per-node demand) so that Weight is a pure lookup.
	Prepare(p *Problem) (VisitWeigher, error)
}

// VisitWeigher scales the base per-visit gain
// Utility.Prob(detour, alpha) * Volume by a factor in [0, 1]. Weight must
// be a pure, concurrency-safe lookup: engine construction calls it from
// parallel workers, and the bit-identity contract requires the same value
// for the same (flow, node) regardless of call order.
type VisitWeigher interface {
	// Weight returns the multiplier for flow (by index into the problem's
	// flow set) receiving the advertisement at node v.
	Weight(flow int, v graph.NodeID) float64
}

// ErrModelUpdate reports a delta update (ApplyCopy) on an engine built
// with an objective model. Model weights may couple flows through shared
// state (a capacity model's per-node demand depends on every flow's
// volume), so per-flow arena rescaling is unsound; callers must
// rebuild via ApplyToProblem + NewEngine instead.
var ErrModelUpdate = errors.New("core: delta updates require the paper objective (Problem.Model == nil)")

// compMode is the engine's resolved composition branch, fixed at
// construction. The zero value is the paper objective, so zero-value
// engines and pre-model struct copies keep their old behavior.
type compMode uint8

const (
	// compBest: nil model. Bank each flow's gain at its minimum-detour
	// placed RAP — byte-for-byte the pre-model code path.
	compBest compMode = iota
	// compBestWeighted: ComposeBest with a model. Weights break the
	// "smaller detour ⇒ larger gain" monotonicity, so the bank tracks the
	// maximum weighted gain directly (weighted maximum coverage).
	compBestWeighted
	// compIndependent: ComposeIndependent. The state tracks each flow's
	// survival probability Π(1-p_i); a new visit with probability q adds
	// survival * q * Volume and multiplies survival by 1-q.
	compIndependent
)

// resolveModel maps a validated problem to its composition branch and
// prepared weigher; nil-model problems resolve to the base branch with no
// weigher.
func resolveModel(p *Problem) (compMode, VisitWeigher, error) {
	if p.Model == nil {
		return compBest, nil, nil
	}
	w, err := p.Model.Prepare(p)
	if err != nil {
		return 0, nil, fmt.Errorf("core: model %s: %w", p.Model.Name(), err)
	}
	if w == nil {
		return 0, nil, fmt.Errorf("core: model %s: Prepare returned a nil weigher", p.Model.Name())
	}
	switch p.Model.Compose() {
	case ComposeBest:
		return compBestWeighted, w, nil
	case ComposeIndependent:
		return compIndependent, w, nil
	}
	return 0, nil, fmt.Errorf("core: model %s: unknown composition %d", p.Model.Name(), p.Model.Compose())
}
