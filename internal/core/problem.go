// Package core implements the paper's primary contribution: the RAP
// (Roadside Access Point) placement problem and its bounded greedy
// solutions.
//
// Given a directed road graph, a shop intersection, a set of daily traffic
// flows with fixed routes, a detour-probability utility function, and a
// budget of k RAPs, the goal is to choose k intersections that maximize the
// expected number of drivers who detour to the shop. Algorithm 1 (greedy
// maximum coverage) achieves 1-1/e of optimal under the threshold utility;
// Algorithm 2 (composite greedy) achieves 1-1/sqrt(e) under any
// non-increasing utility (Theorems in Section III).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/utility"
)

// Errors reported by problem validation and the solvers.
var (
	ErrNilField   = errors.New("core: nil problem field")
	ErrBadBudget  = errors.New("core: k must be at least 1")
	ErrBadShop    = errors.New("core: shop is not a node of the graph")
	ErrNoCandiate = errors.New("core: empty candidate set")
)

// Problem is a fully-specified RAP placement instance.
type Problem struct {
	// Graph is the street network.
	Graph *graph.Graph
	// Shop is the intersection hosting the shop.
	Shop graph.NodeID
	// ExtraShops optionally lists additional shop branches (the paper's
	// multi-shop extension): a driver detours to whichever shop offers
	// the smallest detour, so the effective detour at a node is the
	// minimum over all shops.
	ExtraShops []graph.NodeID
	// Flows are the advertisable daily traffic flows (the paper's set T).
	Flows *flow.Set
	// Utility maps detour distance to detour probability.
	Utility utility.Function
	// K is the number of RAPs to place.
	K int
	// Candidates optionally restricts the intersections eligible for RAP
	// placement. Empty means every intersection is eligible.
	Candidates []graph.NodeID
	// Model optionally swaps the objective economy (see objective.go):
	// probabilistic coverage, effective-resistance value, capacity-limited
	// RAPs. Nil is the paper's additive coverage objective, bit-identical
	// to pre-model engines. Engines built with a model refuse delta
	// updates (ErrModelUpdate).
	Model ObjectiveModel
}

// FlowList is read access to a problem's flows: a *flow.Set, or a
// validated flow.List before its set and incidence index are built.
type FlowList interface {
	Len() int
	At(i int) flow.Flow
}

// Validate checks the instance for structural problems. It does not verify
// each flow path edge-by-edge (see flow.Set.ValidateAll for that).
func (p *Problem) Validate() error {
	if p == nil || p.Flows == nil {
		return ErrNilField
	}
	return p.ValidateWithFlows(p.Flows)
}

// ValidateWithFlows is Validate of the problem whose flows are flows
// instead of p.Flows, which it ignores: it checks a problem before its
// flow set is built.
func (p *Problem) ValidateWithFlows(flows FlowList) error {
	if p == nil || p.Graph == nil || flows == nil || p.Utility == nil {
		return ErrNilField
	}
	if p.K < 1 {
		return fmt.Errorf("%w: k=%d", ErrBadBudget, p.K)
	}
	if !p.Graph.ValidNode(p.Shop) {
		return fmt.Errorf("%w: %d", ErrBadShop, p.Shop)
	}
	for _, s := range p.ExtraShops {
		if !p.Graph.ValidNode(s) {
			return fmt.Errorf("%w: extra shop %d", ErrBadShop, s)
		}
	}
	for _, c := range p.Candidates {
		if !p.Graph.ValidNode(c) {
			return fmt.Errorf("%w: candidate %d", ErrBadShop, c)
		}
	}
	if err := utility.Validate(p.Utility, 1); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// candidateList returns the effective candidate set: the explicit list if
// provided, otherwise every node.
func (p *Problem) candidateList() []graph.NodeID {
	if len(p.Candidates) > 0 {
		return p.Candidates
	}
	all := make([]graph.NodeID, p.Graph.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}

// Placement is a solved RAP placement.
type Placement struct {
	// Nodes are the chosen intersections in placement order.
	Nodes []graph.NodeID
	// Attracted is the expected number of customers per day under this
	// placement, i.e. the objective w(S).
	Attracted float64
	// StepGains records the marginal objective gain of each greedy step
	// (empty for non-greedy solvers).
	StepGains []float64
	// StepKinds records which composite-greedy candidate won each step
	// ("uncovered" or "covered"); empty for other solvers.
	StepKinds []string
}

// SamePlacement reports how got differs from want under the bit-identity
// contract every fast path (parallel scans, many-to-many searches, sharded
// arenas, deltas, warm starts, the HTTP service) keeps with its serial
// reference: the same nodes and step kinds in order, and every step gain
// and the objective equal to the last bit. Floats compare by
// math.Float64bits, so +0 and -0 differ and so do two NaN payloads. A nil
// and an empty slice are equal, because JSON omitempty decodes an empty
// slice as nil. It returns nil when the placements are identical.
func SamePlacement(want, got *Placement) error {
	if !slices.Equal(want.Nodes, got.Nodes) {
		return fmt.Errorf("nodes %v, want %v", got.Nodes, want.Nodes)
	}
	if !slices.Equal(want.StepKinds, got.StepKinds) {
		return fmt.Errorf("step kinds %v, want %v", got.StepKinds, want.StepKinds)
	}
	if len(want.StepGains) != len(got.StepGains) {
		return fmt.Errorf("%d step gains, want %d", len(got.StepGains), len(want.StepGains))
	}
	for i, w := range want.StepGains {
		if math.Float64bits(got.StepGains[i]) != math.Float64bits(w) {
			return fmt.Errorf("step %d gain %v, want %v: not bit-identical", i, got.StepGains[i], w)
		}
	}
	if math.Float64bits(got.Attracted) != math.Float64bits(want.Attracted) {
		return fmt.Errorf("objective %v, want %v: not bit-identical", got.Attracted, want.Attracted)
	}
	return nil
}
