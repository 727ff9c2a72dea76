// Command placerap solves a RAP placement instance end-to-end: it loads a
// street graph (JSON) and a bus GPS trace (CSV), map-matches the trace into
// traffic flows, and prints the optimized placement for a shop location.
//
// Usage:
//
//	placerap -graph city.json -trace trace.csv -shop 42 -k 10 \
//	         -utility linear -D 2500 -algo algorithm2
//
// Observability: -metrics prints the solver/engine counters and histograms
// collected during the run, -trace-out writes the recorded phase and step
// spans as a roadside-trace/v1 JSON document (-trace is taken by the GPS
// input), and -pprof serves net/http/pprof on the given address while the
// command runs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"roadside/internal/core"
	"roadside/internal/experiment"
	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/obs"
	"roadside/internal/opt"
	"roadside/internal/report"
	"roadside/internal/sim"
	"roadside/internal/trace"
	"roadside/internal/utility"
	"roadside/internal/viz"
)

// dublinOrigin anchors the lon/lat projection for Dublin-format traces.
var dublinOrigin = geo.LonLat{Lon: -6.2603, Lat: 53.3498}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placerap:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("placerap", flag.ContinueOnError)
	var (
		graphPath  = fs.String("graph", "", "street graph JSON (required)")
		tracePath  = fs.String("trace", "", "GPS trace CSV (required)")
		format     = fs.String("format", "xy", "trace format: xy or lonlat")
		shop       = fs.Int("shop", -1, "shop intersection ID (required)")
		k          = fs.Int("k", 5, "number of RAPs to place")
		utilityFn  = fs.String("utility", "linear", "utility: threshold, linear, sqrt")
		d          = fs.Float64("D", 2500, "detour threshold D in feet")
		algo       = fs.String("algo", "algorithm2", "algorithm1|algorithm2|combined|lazy|exhaustive|maxcardinality|maxvehicles|maxcustomers|random")
		passengers = fs.Float64("passengers", 200, "passengers per bus")
		alpha      = fs.Float64("alpha", 0.001, "advertisement attractiveness")
		seed       = fs.Int64("seed", 1, "seed for randomized algorithms")
		flowsPath  = fs.String("flows", "", "load flows JSON instead of map-matching a trace")
		saveFlows  = fs.String("save-flows", "", "write the matched flows as JSON for reuse")
		renderMap  = fs.Bool("map", false, "render an ASCII map of the placement")
		simDays    = fs.Int("simulate", 0, "also run an N-day stochastic simulation of the placement")
		simRange   = fs.Float64("range", 0, "RAP radio range in feet for the simulation")
		doReport   = fs.Bool("report", false, "print a coverage and attribution report")
		doMetrics  = fs.Bool("metrics", false, "print solver/engine metrics collected during the run")
		traceOut   = fs.String("trace-out", "", "write phase/step spans as roadside-trace/v1 JSON to this path (implies -metrics)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) during the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		addr, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Printf("pprof serving on http://%s/debug/pprof/\n", addr)
	}
	// Installed before any engine is built: engines capture the process
	// observer at construction, so preprocessing phases are recorded too.
	var rec *obs.Recorder
	if *doMetrics || *traceOut != "" {
		rec = obs.NewRecorder()
		prev := obs.SetDefault(rec)
		defer obs.SetDefault(prev)
	}
	if *graphPath == "" || *shop < 0 {
		return fmt.Errorf("-graph and -shop are required")
	}
	if *tracePath == "" && *flowsPath == "" {
		return fmt.Errorf("one of -trace or -flows is required")
	}
	gFile, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	//lint:ignore errdrop read-only file, close error is immaterial
	defer gFile.Close()
	g, err := graph.ReadJSON(gFile)
	if err != nil {
		return err
	}
	var (
		fset  *flow.Set
		nRecs int
	)
	if *flowsPath != "" {
		fFile, err := os.Open(*flowsPath)
		if err != nil {
			return err
		}
		//lint:ignore errdrop read-only file, close error is immaterial
		defer fFile.Close()
		fset, err = flow.ReadJSON(fFile)
		if err != nil {
			return err
		}
	} else {
		tFile, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		//lint:ignore errdrop read-only file, close error is immaterial
		defer tFile.Close()
		var (
			tf   = trace.FormatXY
			proj *geo.Projection
		)
		if *format == "lonlat" {
			tf = trace.FormatLonLat
			proj, err = geo.NewProjection(dublinOrigin)
			if err != nil {
				return err
			}
		}
		recs, err := trace.ReadCSV(tFile, tf, proj)
		if err != nil {
			return err
		}
		nRecs = len(recs)
		matcher, err := trace.NewMatcher(g, trace.DefaultMatchConfig())
		if err != nil {
			return err
		}
		journeys, err := matcher.Match(recs)
		if err != nil {
			return err
		}
		flows, err := trace.AggregateFlows(journeys, *passengers, *alpha)
		if err != nil {
			return err
		}
		fset, err = flow.NewSet(flows)
		if err != nil {
			return err
		}
	}
	if *saveFlows != "" {
		sf, err := os.Create(*saveFlows)
		if err != nil {
			return err
		}
		err = fset.WriteJSON(sf)
		if cerr := sf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	u, err := utility.ByName(*utilityFn, *d)
	if err != nil {
		return err
	}
	p := &core.Problem{
		Graph:   g,
		Shop:    graph.NodeID(*shop),
		Flows:   fset,
		Utility: u,
		K:       *k,
	}
	// The content digest identifies the instance across tools: the same
	// value keys the serving cache (cmd/serverap) and labels bench runs.
	digest, err := core.ProblemDigest(p)
	if err != nil {
		return err
	}
	if rec != nil {
		rec.Trace.SetMeta("placerap.algo", *algo)
		rec.Trace.SetMeta("placerap.utility", *utilityFn)
		rec.Trace.SetMeta("placerap.k", strconv.Itoa(*k))
		rec.Trace.SetMeta("placerap.seed", strconv.FormatInt(*seed, 10))
		rec.Trace.SetMeta("placerap.problem_digest", digest)
	}
	e, err := core.NewEngine(p)
	if err != nil {
		return err
	}
	pl, err := solve(*algo, e, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	if nRecs > 0 {
		fmt.Printf("matched %d flows (%d GPS records)\n", fset.Len(), nRecs)
	} else {
		fmt.Printf("loaded %d flows\n", fset.Len())
	}
	fmt.Printf("problem digest: %s\n", digest)
	fmt.Printf("placement (%s, %s utility, D=%.0fft, k=%d):\n", *algo, *utilityFn, *d, *k)
	for i, v := range pl.Nodes {
		p := g.Point(v)
		fmt.Printf("  RAP %d at intersection %d (%.0f, %.0f)\n", i+1, v, p.X, p.Y)
	}
	fmt.Printf("expected attracted customers per day: %.2f\n", pl.Attracted)
	if *doReport {
		rep, err := report.Build(e, pl.Nodes, 8)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep.String())
	}
	if *simDays > 0 {
		res, err := sim.Run(e, pl.Nodes, sim.Config{
			Days:           *simDays,
			Seed:           *seed,
			RadioRangeFeet: *simRange,
		})
		if err != nil {
			return err
		}
		fmt.Printf("simulated over %d days (radio range %.0f ft):\n", res.Days, *simRange)
		fmt.Printf("  customers/day: %.2f ± %.2f (expected %.2f)\n",
			res.MeanCustomers, res.StdCustomers, res.Expected)
		fmt.Printf("  contact rate: %.1f%%   extra distance per customer: %.0f ft\n",
			100*res.ContactRate, res.MeanExtraDistance)
	}
	if *renderMap {
		m := &viz.Map{
			Graph: g,
			Flows: fset,
			Shop:  graph.NodeID(*shop),
			RAPs:  pl.Nodes,
			Width: 72, Height: 28,
		}
		rendered, err := m.Render()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(rendered)
		fmt.Println(viz.Legend())
	}
	if rec != nil {
		if *doMetrics {
			fmt.Println("metrics:")
			if err := rec.Metrics.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			tf, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			err = rec.Trace.WriteJSON(tf)
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("trace: %d spans written to %s\n", rec.Trace.Len(), *traceOut)
		}
	}
	return nil
}

func solve(name string, e *core.Engine, rng *rand.Rand) (*core.Placement, error) {
	if name == "exhaustive" {
		return opt.Exhaustive(e, opt.Options{})
	}
	return experiment.Solve(name, e, rng)
}
