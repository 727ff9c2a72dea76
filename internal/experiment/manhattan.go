package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/manhattan"
	"roadside/internal/obs"
	"roadside/internal/par"
	"roadside/internal/stats"
	"roadside/internal/utility"
)

// RunManhattan executes a Manhattan-grid experiment (the paper's Fig. 13
// setting): per trial a fresh crossing demand is drawn, the two-stage
// solvers run per budget k (their placements are not nested), and the
// general-purpose algorithms and baselines run on the grid-semantics
// engine with the nested-prefix optimization.
func RunManhattan(cfg ManhattanConfig, name, title string) (*Result, error) {
	return runManhattan(cfg, name, title, runtime.GOMAXPROCS(0))
}

// runManhattan runs trials across the given number of workers; as with
// runGeneralOn, per-trial seeds derive from (Seed, trial) alone and results
// land in trial-indexed slots, so the outcome is worker-count-independent.
func runManhattan(cfg ManhattanConfig, name, title string, workers int) (*Result, error) {
	if err := normalizeManhattan(&cfg); err != nil {
		return nil, err
	}
	u, err := utility.ByName(cfg.UtilityName, cfg.D)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	sc, err := manhattan.NewScenario(cfg.N, cfg.D/float64(cfg.N-1))
	if err != nil {
		return nil, err
	}
	demand := citygen.DefaultGridDemand()
	if cfg.Flows > 0 {
		demand.Flows = cfg.Flows
	}
	if cfg.FlowsPerLine > 0 {
		// Crossing demand scales with the number of street lines spanning
		// the region: a larger D region intercepts more city traffic.
		demand.Flows = int(cfg.FlowsPerLine * float64(cfg.N))
		if demand.Flows < 1 {
			demand.Flows = 1
		}
	}
	if cfg.Alpha > 0 {
		demand.Alpha = cfg.Alpha
	}
	maxK := cfg.Ks[len(cfg.Ks)-1]
	twoCfg := manhattan.Config{OptBudget: cfg.OptBudget}
	o := obs.Default()
	o.Run(obs.Run{
		Runner: "experiment.manhattan", Name: name,
		Seed: cfg.Seed, Trials: cfg.Trials, Workers: workers,
		Config: map[string]string{
			"n":          strconv.Itoa(cfg.N),
			"utility":    cfg.UtilityName,
			"d":          strconv.FormatFloat(cfg.D, 'g', -1, 64),
			"ks":         ksString(cfg.Ks),
			"flows":      strconv.Itoa(demand.Flows),
			"algorithms": strings.Join(cfg.Algorithms, ","),
		},
	})
	trialValues := make([]map[string][]float64, cfg.Trials)
	trialErrs := make([]error, cfg.Trials)
	par.Do(cfg.Trials, workers, func(trial int) {
		flows, err := citygen.GenerateGridFlows(sc, demand, stats.DeriveSeed(cfg.Seed, trial))
		if err != nil {
			trialErrs[trial] = err
			return
		}
		e, err := sc.Engine(flows, u, maxK)
		if err != nil {
			trialErrs[trial] = err
			return
		}
		rng := stats.NewRand(cfg.Seed, 5000+trial)
		vals := make(map[string][]float64, len(cfg.Algorithms))
		for _, algo := range cfg.Algorithms {
			solveStart := time.Now()
			switch algo {
			case AlgoAlgorithm3, AlgoAlgorithm4:
				// Two-stage placements are not nested across budgets, so
				// each k takes its own solver run.
				row := make([]float64, len(cfg.Ks))
				for ki, k := range cfg.Ks {
					var pl *core.Placement
					if algo == AlgoAlgorithm3 {
						pl, err = manhattan.Algorithm3(sc, flows, u, k, twoCfg)
					} else {
						pl, err = manhattan.Algorithm4(sc, flows, u, k, twoCfg)
					}
					if err != nil {
						trialErrs[trial] = err
						return
					}
					row[ki] = e.Evaluate(pl.Nodes)
				}
				vals[algo] = row
			default:
				pl, err := Solve(algo, e, rng)
				if err != nil {
					trialErrs[trial] = err
					return
				}
				vals[algo] = evalAtKs(e, pl.Nodes, cfg.Ks)
			}
			row := vals[algo]
			o.Trial(obs.Trial{
				Runner: "experiment.manhattan", Name: name,
				Trial: trial, Seed: stats.DeriveSeed(cfg.Seed, trial),
				Algo: algo, Objective: row[len(row)-1],
				Duration: time.Since(solveStart),
			})
		}
		trialValues[trial] = vals
	})
	return assembleTrials(name, title, cfg.Algorithms, cfg.Ks, trialValues, trialErrs)
}

func normalizeManhattan(cfg *ManhattanConfig) error {
	if cfg.D <= 0 {
		return fmt.Errorf("%w: D=%v", ErrBadConfig, cfg.D)
	}
	if cfg.N == 0 {
		block := cfg.BlockFeet
		if block <= 0 {
			block = 500 // Seattle downtown block scale
		}
		// Closest odd dimension so (N-1) blocks span D at ~block feet.
		n := int(cfg.D/block) + 1
		if n%2 == 0 {
			n++
		}
		if n < 3 {
			n = 3
		}
		cfg.N = n
	}
	if cfg.N < 3 || cfg.N%2 == 0 {
		return fmt.Errorf("%w: N=%d", ErrBadConfig, cfg.N)
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = DefaultKs()
	}
	for i := 1; i < len(cfg.Ks); i++ {
		if cfg.Ks[i] <= cfg.Ks[i-1] {
			return fmt.Errorf("%w: Ks must be strictly increasing", ErrBadConfig)
		}
	}
	if cfg.Ks[0] < 1 {
		return fmt.Errorf("%w: k >= 1", ErrBadConfig)
	}
	if cfg.Trials < 1 {
		cfg.Trials = 30
	}
	if len(cfg.Algorithms) == 0 {
		twoStage := AlgoAlgorithm4
		if cfg.UtilityName == "threshold" {
			twoStage = AlgoAlgorithm3
		}
		cfg.Algorithms = []string{
			twoStage, AlgoMaxCustomers, AlgoMaxCardinality, AlgoMaxVehicles, AlgoRandom,
		}
	}
	return nil
}
