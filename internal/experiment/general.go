package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"roadside/internal/citygen"
	"roadside/internal/classify"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/obs"
	"roadside/internal/par"
	"roadside/internal/stats"
	"roadside/internal/trace"
	"roadside/internal/utility"
)

// Instance is a prepared general-scenario world: a city, its traffic flows,
// and the intersection classification. Building it is the expensive part of
// an experiment, so it is shared across trials and figure variants.
type Instance struct {
	City           *citygen.City
	Flows          *flow.Set
	Classification *classify.Classification
}

// BuildInstance assembles the world for a config (ignoring its
// utility/shop/k settings, which vary per sub-figure).
func BuildInstance(cfg GeneralConfig) (*Instance, error) {
	var (
		city *citygen.City
		err  error
	)
	passengers := cfg.PassengersPerBus
	switch cfg.City {
	case "dublin":
		city, err = citygen.Dublin(cfg.Seed)
		//lint:ignore floatcmp exact zero is the documented "unset" sentinel
		if passengers == 0 {
			passengers = 100 // the paper's Dublin assumption
		}
	case "seattle":
		city, err = citygen.Seattle(cfg.Seed)
		//lint:ignore floatcmp exact zero is the documented "unset" sentinel
		if passengers == 0 {
			passengers = 200 // the paper's Seattle assumption
		}
	default:
		return nil, fmt.Errorf("%w: city %q", ErrBadConfig, cfg.City)
	}
	if err != nil {
		return nil, err
	}
	demand := citygen.DefaultDemand()
	if cfg.Routes > 0 {
		demand.Routes = cfg.Routes
	}
	routes, err := citygen.GenerateRoutes(city, demand, cfg.Seed)
	if err != nil {
		return nil, err
	}
	alpha := cfg.Alpha
	//lint:ignore floatcmp exact zero is the documented "unset" sentinel
	if alpha == 0 {
		alpha = 0.001 // the paper's base shopping probability
	}
	var flows []flow.Flow
	if cfg.UseTracePipeline {
		recs, err := trace.Generate(city.Graph, routes, trace.DefaultGenConfig(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		matcher, err := trace.NewMatcher(city.Graph, trace.DefaultMatchConfig())
		if err != nil {
			return nil, err
		}
		journeys, err := matcher.Match(recs)
		if err != nil {
			return nil, err
		}
		flows, err = trace.AggregateFlows(journeys, passengers, alpha)
		if err != nil {
			return nil, err
		}
	} else {
		flows, err = citygen.RoutesToFlows(routes, passengers, alpha)
		if err != nil {
			return nil, err
		}
	}
	fs, err := flow.NewSet(flows)
	if err != nil {
		return nil, err
	}
	cls, err := classify.Classify(fs, city.Graph.NumNodes(), classify.Options{})
	if err != nil {
		return nil, err
	}
	return &Instance{City: city, Flows: fs, Classification: cls}, nil
}

// RunGeneral executes a general-scenario experiment: for each trial a shop
// is drawn from the configured intersection class, every algorithm is run
// once at the largest budget, and its nested placements are evaluated at
// every k. Results are averaged across trials.
func RunGeneral(cfg GeneralConfig, name, title string) (*Result, error) {
	inst, err := BuildInstance(cfg)
	if err != nil {
		return nil, err
	}
	return RunGeneralOn(inst, cfg, name, title)
}

// RunGeneralOn is RunGeneral against a pre-built instance, letting figure
// groups share one city across sub-figures.
func RunGeneralOn(inst *Instance, cfg GeneralConfig, name, title string) (*Result, error) {
	return runGeneralOn(inst, cfg, name, title, runtime.GOMAXPROCS(0))
}

// runGeneralOn runs trials across the given number of workers. Each trial's
// randomness derives from (Seed, trial) alone and results land in
// trial-indexed slots, so any worker count produces the result of the
// serial run bit for bit.
func runGeneralOn(inst *Instance, cfg GeneralConfig, name, title string, workers int) (*Result, error) {
	if err := normalizeGeneral(&cfg); err != nil {
		return nil, err
	}
	u, err := utility.ByName(cfg.UtilityName, cfg.D)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	maxK := cfg.Ks[len(cfg.Ks)-1]
	o := obs.Default()
	o.Run(obs.Run{
		Runner: "experiment.general", Name: name,
		Seed: cfg.Seed, Trials: cfg.Trials, Workers: workers,
		Config: map[string]string{
			"city":       cfg.City,
			"utility":    cfg.UtilityName,
			"d":          strconv.FormatFloat(cfg.D, 'g', -1, 64),
			"ks":         ksString(cfg.Ks),
			"shop_class": fmt.Sprint(cfg.ShopClass),
			"algorithms": strings.Join(cfg.Algorithms, ","),
		},
	})
	// trialValues[trial][algo][kIndex] holds one trial's objectives.
	trialValues := make([]map[string][]float64, cfg.Trials)
	trialErrs := make([]error, cfg.Trials)
	par.Do(cfg.Trials, workers, func(trial int) {
		rng := stats.NewRand(cfg.Seed, 1000+trial)
		shop, err := inst.Classification.Sample(cfg.ShopClass, rng)
		if err != nil {
			trialErrs[trial] = err
			return
		}
		p := &core.Problem{
			Graph:   inst.City.Graph,
			Shop:    shop,
			Flows:   inst.Flows,
			Utility: u,
			K:       maxK,
		}
		e, err := core.NewEngine(p)
		if err != nil {
			trialErrs[trial] = err
			return
		}
		vals := make(map[string][]float64, len(cfg.Algorithms))
		for _, algo := range cfg.Algorithms {
			solveStart := time.Now()
			pl, err := Solve(algo, e, rng)
			if err != nil {
				trialErrs[trial] = err
				return
			}
			row := evalAtKs(e, pl.Nodes, cfg.Ks)
			vals[algo] = row
			o.Trial(obs.Trial{
				Runner: "experiment.general", Name: name,
				Trial: trial, Seed: stats.DeriveSeed(cfg.Seed, 1000+trial),
				Algo: algo, Objective: row[len(row)-1],
				Duration: time.Since(solveStart),
			})
		}
		trialValues[trial] = vals
	})
	return assembleTrials(name, title, cfg.Algorithms, cfg.Ks, trialValues, trialErrs)
}

// ksString renders a budget list as "1,2,5" for run metadata.
func ksString(ks []int) string {
	var sb strings.Builder
	for i, k := range ks {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(k))
	}
	return sb.String()
}

// evalAtKs evaluates the nested placement at every budget in ks with one
// incremental prefix sweep instead of |ks| independent re-evaluations.
func evalAtKs(e *core.Engine, nodes []graph.NodeID, ks []int) []float64 {
	prefix := e.EvaluatePrefixes(nodes)
	row := make([]float64, len(ks))
	for ki, k := range ks {
		n := k
		if n > len(nodes) {
			n = len(nodes)
		}
		row[ki] = prefix[n]
	}
	return row
}

// assembleTrials folds trial-indexed rows into the per-algorithm series,
// reporting the lowest-index trial error so failures are deterministic.
func assembleTrials(name, title string, algos []string, ks []int, trialValues []map[string][]float64, trialErrs []error) (*Result, error) {
	for _, err := range trialErrs {
		if err != nil {
			return nil, err
		}
	}
	values := make(map[string][][]float64, len(algos))
	for _, a := range algos {
		values[a] = make([][]float64, len(ks))
	}
	for _, vals := range trialValues {
		for _, algo := range algos {
			for ki := range ks {
				values[algo][ki] = append(values[algo][ki], vals[algo][ki])
			}
		}
	}
	return assemble(name, title, algos, ks, len(trialValues), values)
}

func normalizeGeneral(cfg *GeneralConfig) error {
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
		cfg.Trials = 50
	}
	if len(cfg.Algorithms) == 0 {
		greedy := AlgoAlgorithm2
		if cfg.UtilityName == "threshold" {
			greedy = AlgoAlgorithm1
		}
		cfg.Algorithms = []string{
			greedy, AlgoMaxCustomers, AlgoMaxCardinality, AlgoMaxVehicles, AlgoRandom,
		}
	}
	for _, a := range cfg.Algorithms {
		if !prefixNested(a) {
			return fmt.Errorf("%w: %q is Manhattan-only", ErrUnknown, a)
		}
	}
	return nil
}

// assemble converts raw per-trial values to a Result.
func assemble(name, title string, algos []string, ks []int, trials int, values map[string][][]float64) (*Result, error) {
	res := &Result{Name: name, Title: title, Trials: trials}
	for _, algo := range algos {
		s := Series{Algo: algo, Points: make([]Point, 0, len(ks))}
		for ki, k := range ks {
			sum, err := stats.Summarize(values[algo][ki])
			if err != nil {
				return nil, fmt.Errorf("experiment: %s k=%d: %w", algo, k, err)
			}
			s.Points = append(s.Points, Point{
				K: k, Mean: sum.Mean, Std: sum.Std, CI95: sum.CI95(),
			})
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}
