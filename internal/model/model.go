// Package model implements alternative objective economies for the RAP
// placement problem, behind the one core.ObjectiveModel interface the
// engine consumes. Three models ship:
//
//   - Probabilistic: each RAP covers a flow with probability
//     reception * Prob(detour, alpha); a flow's covered probability
//     composes as 1 - Π(1-p_i) across placed RAPs (Hu et al., PAPERS.md
//     #1 — expected covered value, monotone submodular).
//   - Resistance: a candidate's value is weighted by its random-walk
//     accessibility to the shop, 1/(1 + R_eff/scale) on the grounded
//     graph Laplacian (Yu/Wei/Berry, PAPERS.md #2).
//   - Capacity: RAPs have a finite downlink data rate shared by the
//     traffic through the node; a saturated RAP delivers a shrinking
//     fraction of the advertisement in one contact window, and below a
//     completion floor it delivers nothing (SNIPPETS.md snippet 1 —
//     data-rate caps with contact time from vehicle speed and radio
//     range).
//
// All three keep the objective monotone submodular, so the four greedy
// solvers, their termination contracts, warm starts, and the exhaustive
// oracle run unmodified on model engines; the invariant registry
// re-proves this on randomized instances (prob-coverage-submodular,
// resistance-psd, capacity-saturation-monotone, model-greedy-approx).
package model

import (
	"fmt"
	"math"

	"roadside/internal/core"
	"roadside/internal/graph"
)

// Objective is the interface all objective models implement; it is the
// engine-side core.ObjectiveModel, re-exported so callers configuring
// models never import core directly.
type Objective = core.ObjectiveModel

// Probabilistic is the probabilistic-coverage objective: a driver passing
// a placed RAP receives the broadcast with probability Reception, then
// detours with the usual Prob(detour, alpha), so one RAP converts the
// flow with p = Reception * Prob(detour, alpha) and several placed RAPs
// compose independently to Volume * (1 - Π(1-p_i)).
type Probabilistic struct {
	// Reception is the per-contact broadcast reception probability, in
	// (0, 1]. 1 means every passing driver receives the advertisement.
	Reception float64
}

var _ Objective = Probabilistic{}

// Validate checks the model parameters.
func (m Probabilistic) Validate() error {
	if math.IsNaN(m.Reception) || m.Reception <= 0 || m.Reception > 1 {
		return fmt.Errorf("model: probabilistic reception %v outside (0, 1]", m.Reception)
	}
	return nil
}

// Name implements Objective.
func (m Probabilistic) Name() string { return "probabilistic" }

// Params implements Objective.
func (m Probabilistic) Params() string { return fmt.Sprintf("reception=%g", m.Reception) }

// Compose implements Objective: probabilistic coverage composes
// independently across placed RAPs.
func (m Probabilistic) Compose() core.Composition { return core.ComposeIndependent }

// Prepare implements Objective. The weigher is the constant reception
// probability; all composition structure lives in the engine's
// ComposeIndependent branch.
func (m Probabilistic) Prepare(p *core.Problem) (core.VisitWeigher, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return constWeigher(m.Reception), nil
}

// constWeigher is a flow- and node-independent weight.
type constWeigher float64

func (w constWeigher) Weight(flow int, v graph.NodeID) float64 { return float64(w) }

// nodeWeigher is a per-node weight table; flows share the weight of the
// node they pass.
type nodeWeigher []float64

func (w nodeWeigher) Weight(flow int, v graph.NodeID) float64 {
	if v < 0 || int(v) >= len(w) {
		return 0
	}
	return w[v]
}
