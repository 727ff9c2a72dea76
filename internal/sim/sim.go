// Package sim is a stochastic microsimulator for roadside advertisement
// dissemination. Where the core engine computes the *expected* number of
// attracted customers analytically, the simulator realizes the process the
// paper abstracts: individual vehicles drive their routes, RAPs broadcast
// within a radio range, each driver receives advertisements on contact and
// detours with probability f(detour), and realized daily customer counts
// are tallied.
//
// Two uses:
//
//  1. Validation — with a near-zero radio range the simulated mean
//     converges to the engine's Evaluate (tests assert this), grounding
//     the analytical model.
//  2. Generalization — a positive radio range covers vehicles whose route
//     passes *near* a RAP, not only through its intersection, which the
//     paper's intersection-contact model cannot express. Coverage is
//     monotone in the range.
package sim

import (
	"errors"
	"fmt"
	"math"

	"roadside/internal/core"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/stats"
)

// Errors reported by the simulator.
var (
	ErrBadConfig = errors.New("sim: invalid config")
)

// Config parameterizes a simulation.
type Config struct {
	// RadioRangeFeet is the RAP broadcast radius. Zero means pure
	// intersection contact (the paper's model): a vehicle hears a RAP
	// only when its route passes through the RAP's intersection.
	RadioRangeFeet float64
	// Days is the number of simulated days (replications).
	Days int
	// Seed drives all stochastic draws.
	Seed int64
	// DailyVolumePoisson draws each flow's daily vehicle count from
	// Poisson(volume) instead of using round(volume) deterministically.
	DailyVolumePoisson bool
}

// Result summarizes a simulation.
type Result struct {
	// Days is the number of simulated days.
	Days int
	// MeanCustomers and StdCustomers summarize realized daily attracted
	// customers.
	MeanCustomers float64
	StdCustomers  float64
	// Expected is the analytical expectation under the same contact
	// model (equals core's Evaluate when RadioRangeFeet is zero).
	Expected float64
	// ContactRate is the fraction of vehicles that received at least one
	// advertisement.
	ContactRate float64
	// MeanExtraDistance is the average extra distance driven per
	// detouring customer, in feet.
	MeanExtraDistance float64
}

// flowExposure is a flow's precomputed advertisement exposure under a
// placement: the best (minimum) detour among all RAPs the flow can hear,
// and the detour probability it induces.
type flowExposure struct {
	covered bool
	detour  float64
	prob    float64
	volume  float64
}

// Run simulates the placement. The contact model is geometric: a vehicle
// following its flow's route hears a RAP wherever the route passes within
// RadioRangeFeet of the RAP's intersection (at zero range: passes through
// it); the driver then behaves per the paper — only the minimum-detour
// contact opportunity matters.
func Run(e *core.Engine, placement []graph.NodeID, cfg Config) (*Result, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("%w: days=%d", ErrBadConfig, cfg.Days)
	}
	if cfg.RadioRangeFeet < 0 || math.IsNaN(cfg.RadioRangeFeet) {
		return nil, fmt.Errorf("%w: radio range %v", ErrBadConfig, cfg.RadioRangeFeet)
	}
	p := e.Problem()
	for _, v := range placement {
		if !p.Graph.ValidNode(v) {
			return nil, fmt.Errorf("sim: %w: %d", graph.ErrNodeRange, v)
		}
	}
	exposures, err := computeExposures(e, placement, cfg.RadioRangeFeet)
	if err != nil {
		return nil, err
	}
	res := &Result{Days: cfg.Days}
	var (
		daily         = make([]float64, 0, cfg.Days)
		totalVehicles float64
		heardVehicles float64
		extraDistance float64
		detourCount   float64
	)
	for _, exp := range exposures {
		res.Expected += exp.prob * exp.volume
	}
	rng := stats.NewRand(cfg.Seed, 11)
	for day := 0; day < cfg.Days; day++ {
		var customers float64
		for _, exp := range exposures {
			n := int(exp.volume + 0.5)
			if cfg.DailyVolumePoisson {
				n = stats.Poisson(rng, exp.volume)
			}
			totalVehicles += float64(n)
			if !exp.covered {
				continue
			}
			heardVehicles += float64(n)
			if exp.prob <= 0 {
				continue
			}
			// Per-vehicle Bernoulli detour decisions.
			for v := 0; v < n; v++ {
				if rng.Float64() < exp.prob {
					customers++
					extraDistance += exp.detour
					detourCount++
				}
			}
		}
		daily = append(daily, customers)
	}
	sum, err := stats.Summarize(daily)
	if err != nil {
		return nil, err
	}
	res.MeanCustomers = sum.Mean
	res.StdCustomers = sum.Std
	if totalVehicles > 0 {
		res.ContactRate = heardVehicles / totalVehicles
	}
	if detourCount > 0 {
		res.MeanExtraDistance = extraDistance / detourCount
	}
	return res, nil
}

// computeExposures determines, per flow, the minimum-detour contact
// opportunity under the geometric contact model. A RAP offers a contact
// opportunity at every intersection the route reaches while (or right
// after) being inside the radio range; per the paper's rule that only the
// best advertisement matters, the driver diverts at the opportunity with
// the smallest detour. This keeps coverage monotone in the radio range
// even for routes that are not globally shortest paths.
func computeExposures(e *core.Engine, placement []graph.NodeID, radius float64) ([]flowExposure, error) {
	p := e.Problem()
	g := p.Graph
	exposures := make([]flowExposure, p.Flows.Len())
	for f := 0; f < p.Flows.Len(); f++ {
		fl := p.Flows.At(f)
		exp := flowExposure{detour: math.Inf(1), volume: fl.Volume}
		for _, rap := range placement {
			for _, node := range contactNodes(g, fl.Path, g.Point(rap), radius) {
				d := e.Detour(f, node)
				if math.IsInf(d, 1) {
					continue
				}
				exp.covered = true
				if d < exp.detour {
					exp.detour = d
				}
			}
		}
		if exp.covered {
			exp.prob = p.Utility.Prob(exp.detour, fl.Alpha)
		}
		exposures[f] = exp
	}
	return exposures, nil
}

// contactNodes walks the route and returns every intersection at which the
// driver, having heard the RAP at rapPos on the street leading there (or
// standing at it), could decide to divert. At radius zero, contact requires
// the route to touch the RAP's exact location.
func contactNodes(g *graph.Graph, path []graph.NodeID, rapPos geo.Point, radius float64) []graph.NodeID {
	const exactEps = 1e-9
	var nodes []graph.NodeID
	if radius <= 0 {
		// The paper's model: the advertisement is received exactly at
		// the RAP's intersection.
		for _, v := range path {
			if g.Point(v).Euclidean(rapPos) <= exactEps {
				nodes = append(nodes, v)
			}
		}
		return nodes
	}
	if g.Point(path[0]).Euclidean(rapPos) <= radius {
		nodes = append(nodes, path[0])
	}
	for i := 1; i < len(path); i++ {
		a, b := g.Point(path[i-1]), g.Point(path[i])
		if d, _ := geo.SegmentDistance(rapPos, a, b); d <= radius {
			nodes = append(nodes, path[i])
		}
	}
	return nodes
}
