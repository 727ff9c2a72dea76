package core

import (
	"errors"
	"fmt"
	"math"

	"roadside/internal/graph"
)

// Errors reported by the budgeted solver.
var (
	ErrBadCost    = errors.New("core: costs must be positive and finite")
	ErrBadBudget2 = errors.New("core: budget must be positive")
)

// BudgetedProblem extends the placement problem with per-intersection
// installation costs and a monetary budget instead of a RAP count. This is
// the budgeted maximum coverage variant (Khuller, Moss and Naor, the
// paper's reference [18]) applied to RAP placement: real deployments pay
// different rents at different intersections.
type BudgetedProblem struct {
	// Costs[v] is the installation cost at intersection v; it must be
	// positive for every candidate.
	Costs map[graph.NodeID]float64
	// Budget is the total spend allowed.
	Budget float64
}

// Validate checks the costs against the engine's candidate set.
func (bp *BudgetedProblem) Validate(e *Engine) error {
	if bp == nil || bp.Budget <= 0 || math.IsNaN(bp.Budget) || math.IsInf(bp.Budget, 0) {
		return ErrBadBudget2
	}
	for _, v := range e.Candidates() {
		c, ok := bp.Costs[v]
		if !ok || c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: candidate %d has cost %v", ErrBadCost, v, c)
		}
	}
	return nil
}

// BudgetedPlacement is a solved budgeted placement.
type BudgetedPlacement struct {
	// Nodes are the chosen intersections in placement order.
	Nodes []graph.NodeID
	// Attracted is the objective value w(S).
	Attracted float64
	// Spent is the total installation cost of the placement.
	Spent float64
}

// BudgetedGreedy solves the budgeted RAP placement with the classic
// cost-benefit greedy of Khuller et al.: repeatedly add the affordable
// intersection maximizing marginal gain per unit cost, then return the
// better of that solution and the best single affordable intersection.
// This achieves a (1-1/e)/2 approximation for the submodular objective;
// with uniform costs it coincides with the combined greedy.
func BudgetedGreedy(e *Engine, bp *BudgetedProblem) (*BudgetedPlacement, error) {
	if err := bp.Validate(e); err != nil {
		return nil, err
	}
	// Phase 1: density greedy under the budget.
	state := e.newDetourState()
	placed := e.newPlacedSet()
	var (
		nodes []graph.NodeID
		spent float64
	)
	for {
		best := graph.Invalid
		bestDensity := 0.0
		for _, v := range e.Candidates() {
			if placed.has(v) {
				continue
			}
			cost := bp.Costs[v]
			if spent+cost > bp.Budget {
				continue
			}
			u, c := state.marginalGain(e, v)
			if density := (u + c) / cost; density > bestDensity {
				best, bestDensity = v, density
			}
		}
		if best == graph.Invalid {
			break // nothing affordable improves the objective
		}
		placed.add(best)
		state.place(e, best)
		nodes = append(nodes, best)
		spent += bp.Costs[best]
	}
	greedyVal := e.Evaluate(nodes)

	// Phase 2: best single affordable intersection. This guards against
	// instances where one expensive intersection dominates everything the
	// density rule can afford to combine.
	bestSingle := graph.Invalid
	bestSingleVal := 0.0
	for _, v := range e.Candidates() {
		if bp.Costs[v] > bp.Budget {
			continue
		}
		if g := e.StandaloneGain(v); g > bestSingleVal {
			bestSingle, bestSingleVal = v, g
		}
	}
	if bestSingle != graph.Invalid && bestSingleVal > greedyVal {
		return &BudgetedPlacement{
			Nodes:     []graph.NodeID{bestSingle},
			Attracted: bestSingleVal,
			Spent:     bp.Costs[bestSingle],
		}, nil
	}
	return &BudgetedPlacement{
		Nodes:     nodes,
		Attracted: greedyVal,
		Spent:     spent,
	}, nil
}

// UniformCosts builds a cost map assigning every candidate the same cost,
// under which BudgetedGreedy with budget k*cost reduces to a count-k
// placement.
func UniformCosts(e *Engine, cost float64) map[graph.NodeID]float64 {
	costs := make(map[graph.NodeID]float64, len(e.Candidates()))
	for _, v := range e.Candidates() {
		costs[v] = cost
	}
	return costs
}
