package experiment

import (
	"fmt"
	"math"
	"strings"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/opt"
	"roadside/internal/stats"
	"roadside/internal/utility"
)

// RatioConfig parameterizes the empirical approximation-ratio study: many
// small random instances are solved both greedily and exactly, and the
// worst and mean observed ratios are compared with the theorems' bounds.
type RatioConfig struct {
	// Trials is the number of random instances (default 50).
	Trials int
	// Nodes is the lattice side of the small instances (default 4, i.e.
	// up to 16 intersections).
	Nodes int
	// Flows per instance (default 10).
	Flows int
	// K RAPs per instance (default 3; exhaustive must stay tractable).
	K int
	// Seed drives instance generation.
	Seed int64
}

// RatioRow is the observed ratio statistics for one algorithm.
type RatioRow struct {
	Algo    string  `json:"algo"`
	Utility string  `json:"utility"`
	Bound   float64 `json:"bound"`
	Min     float64 `json:"min"`
	Mean    float64 `json:"mean"`
	Trials  int     `json:"trials"`
}

// RatioResult is the completed ratio study.
type RatioResult struct {
	Rows []RatioRow `json:"rows"`
}

// Table renders the study as an aligned text table.
func (r *RatioResult) Table() string {
	var sb strings.Builder
	sb.WriteString("empirical approximation ratios vs exhaustive optimum\n")
	fmt.Fprintf(&sb, "%-12s  %-10s  %8s  %8s  %8s  %6s\n",
		"algorithm", "utility", "bound", "min", "mean", "n")
	sb.WriteString(strings.Repeat("-", 62) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s  %-10s  %8.4f  %8.4f  %8.4f  %6d\n",
			row.Algo, row.Utility, row.Bound, row.Min, row.Mean, row.Trials)
	}
	return sb.String()
}

// RunRatios measures empirical approximation ratios of Algorithms 1 and 2
// (and the combined greedy) against the exhaustive optimum on small random
// instances, validating Theorem 2's bounds far beyond the unit tests'
// sample sizes.
func RunRatios(cfg RatioConfig) (*RatioResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 50
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 10
	}
	if cfg.K <= 0 {
		cfg.K = 3
	}
	type variant struct {
		algo    string
		utility string
		bound   float64
	}
	variants := []variant{
		{AlgoAlgorithm1, "threshold", 1 - 1/math.E},
		{AlgoAlgorithm2, "linear", 1 - 1/math.Sqrt(math.E)},
		{AlgoCombined, "linear", 1 - 1/math.E},
	}
	ratios := make(map[string][]float64, len(variants))
	for trial := 0; trial < cfg.Trials; trial++ {
		for _, v := range variants {
			u, err := utility.ByName(v.utility, 60)
			if err != nil {
				return nil, err
			}
			e, err := smallInstance(cfg, trial, u)
			if err != nil {
				return nil, err
			}
			greedy, err := Solve(v.algo, e, nil)
			if err != nil {
				return nil, err
			}
			best, err := opt.Exhaustive(e, opt.Options{})
			if err != nil {
				return nil, err
			}
			ratio := 1.0
			if best.Attracted > 1e-12 {
				ratio = greedy.Attracted / best.Attracted
			}
			key := v.algo + "/" + v.utility
			ratios[key] = append(ratios[key], ratio)
		}
	}
	res := &RatioResult{Rows: make([]RatioRow, 0, len(variants))}
	for _, v := range variants {
		key := v.algo + "/" + v.utility
		sum, err := stats.Summarize(ratios[key])
		if err != nil {
			return nil, err
		}
		if sum.Min < v.bound-1e-9 {
			return nil, fmt.Errorf(
				"experiment: %s violated its bound: min ratio %.4f < %.4f",
				v.algo, sum.Min, v.bound)
		}
		res.Rows = append(res.Rows, RatioRow{
			Algo:    v.algo,
			Utility: v.utility,
			Bound:   v.bound,
			Min:     sum.Min,
			Mean:    sum.Mean,
			Trials:  sum.N,
		})
	}
	return res, nil
}

// smallInstance builds a small random problem on a jittered lattice with
// shortest-path flows.
func smallInstance(cfg RatioConfig, trial int, u utility.Function) (*core.Engine, error) {
	city, err := citygen.Generate(citygen.Config{
		Name:       "ratio",
		Rows:       cfg.Nodes,
		Cols:       cfg.Nodes,
		ExtentFeet: 100,
		Jitter:     0.2,
		DropProb:   0.1,
		Diagonals:  2,
	}, stats.DeriveSeed(cfg.Seed, trial))
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed, 7000+trial)
	g := city.Graph
	flows := make([]flow.Flow, 0, cfg.Flows)
	for len(flows) < cfg.Flows {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		dst := graph.NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		path, _, err := g.ShortestPath(src, dst)
		if err != nil {
			continue
		}
		f, err := flow.New("", path, 1+rng.Float64()*99, rng.Float64())
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	fs, err := flow.NewSet(flows)
	if err != nil {
		return nil, err
	}
	return core.NewEngine(&core.Problem{
		Graph:   g,
		Shop:    graph.NodeID(rng.Intn(g.NumNodes())),
		Flows:   fs,
		Utility: u,
		K:       cfg.K,
	})
}
