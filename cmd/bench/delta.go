package main

import (
	"fmt"
	"io"
	"testing"

	"roadside"
	"roadside/internal/benchio"
	"roadside/internal/core"
)

// Delta benchmark mode (-delta).
//
// The standard suite prices a problem from scratch; this mode prices
// traffic drift on a problem the server already holds — the workload
// POST /v1/update exists for. Two drift shapes are measured over the
// Dublin fixture, each both ways:
//
//   - volume drift: re-scaled daily volumes on a handful of flows
//     (rush hour), the common case the per-flow gain rewrite optimizes;
//   - add/remove churn: a new flow appears and an old one disappears
//     (a route change), exercising the CSR row edit and reshard guard.
//
// The rebuild path is what a deployment without the delta layer pays per
// drift tick: full engine preprocessing on the mutated problem plus a
// cold lazy solve. The delta path is ApplyCopy on the standing engine
// plus a warm-started re-solve. BaselineNs on each delta entry is the
// measured rebuild ns for the same drift, so the report's Speedup column
// IS update-vs-rebuild — the headline number. Bit-identity between the
// two paths (fingerprint, placement, step gains) is asserted before
// anything is timed, and the volume-drift speedup is gated at >= 10x.

// deltaSpeedupGate is the minimum update-vs-rebuild ratio on the
// volume-drift cycle; below it the delta layer has lost its reason to
// exist and the run fails.
const deltaSpeedupGate = 10.0

// deltaRounds is how many alternating rebuild/delta rounds a drift pair
// is timed over. A single short window on a shared machine can lose a
// scheduler slice to another process and halve the measured ratio; the
// fastest of a few interleaved windows is the least-disturbed estimate of
// each side's cost.
const deltaRounds = 5

// fastest keeps the lowest-ns/op result of repeated benchmark runs.
type fastest struct {
	res testing.BenchmarkResult
	ns  float64
}

// time runs fn once and keeps the result if it beats the best so far.
func (f *fastest) time(name string, fn func(*testing.B)) error {
	res := testing.Benchmark(fn)
	if res.N == 0 {
		return fmt.Errorf("%s: benchmarks failed to run", name)
	}
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	if f.res.N == 0 || ns < f.ns {
		f.res, f.ns = res, ns
	}
	return nil
}

// driftVolumeOps rescales every third flow's volume deterministically —
// a morning-peak style drift where a subset of routes changes load.
func driftVolumeOps(p *roadside.Problem) []roadside.FlowUpdate {
	var ops []roadside.FlowUpdate
	for i := 0; i < p.Flows.Len(); i += 3 {
		f := p.Flows.At(i)
		ops = append(ops, roadside.FlowUpdate{
			Op: roadside.OpSetVolume, Flow: i, Volume: f.Volume*1.5 + float64(i%7),
		})
	}
	return ops
}

// driftChurnOps adds one flow and removes another: a new route enters
// service on an existing corridor while the lowest-index route retires.
func driftChurnOps(p *roadside.Problem) ([]roadside.FlowUpdate, error) {
	last := p.Flows.At(p.Flows.Len() - 1)
	added, err := roadside.NewFlow("bench-churn", last.Path, last.Volume*0.8+1, 0.35)
	if err != nil {
		return nil, fmt.Errorf("churn flow: %w", err)
	}
	return []roadside.FlowUpdate{
		{Op: roadside.OpAddFlow, Add: added},
		{Op: roadside.OpRemoveFlow, Flow: 0},
	}, nil
}

// measureDrift times one drift cycle both ways and appends the rebuild /
// delta entry pair. base and warm are the standing engine and its warm
// state; ops is the drift batch.
func measureDrift(w io.Writer, report *benchio.Report, name string,
	base *roadside.Engine, warm *roadside.Warm, ops []roadside.FlowUpdate) (float64, error) {

	drifted, err := roadside.ApplyToProblem(base.Problem(), ops)
	if err != nil {
		return 0, fmt.Errorf("%s: drift oracle: %w", name, err)
	}

	// Identity check before timing: the delta engine and a fresh build of
	// the drifted problem must agree bit-for-bit, warm solve included.
	fresh, err := roadside.NewEngine(drifted)
	if err != nil {
		return 0, fmt.Errorf("%s: fresh engine: %w", name, err)
	}
	dEng, touched, err := base.ApplyCopy(ops)
	if err != nil {
		return 0, fmt.Errorf("%s: apply: %w", name, err)
	}
	if df, ff := dEng.Fingerprint(), fresh.Fingerprint(); df != ff {
		return 0, fmt.Errorf("%s: delta fingerprint %016x != fresh %016x", name, df, ff)
	}
	coldPl, err := roadside.GreedyLazy(fresh)
	if err != nil {
		return 0, fmt.Errorf("%s: cold solve: %w", name, err)
	}
	wRef := warm.Clone()
	wRef.Refresh(dEng, touched)
	warmPl, err := roadside.GreedyLazyWarm(dEng, wRef)
	if err != nil {
		return 0, fmt.Errorf("%s: warm solve: %w", name, err)
	}
	if err := core.SamePlacement(coldPl, warmPl); err != nil {
		return 0, fmt.Errorf("%s: warm/cold placements diverge: %w", name, err)
	}

	rebuild := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := roadside.NewEngine(drifted)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := roadside.GreedyLazy(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	delta := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, touched, err := base.ApplyCopy(ops)
			if err != nil {
				b.Fatal(err)
			}
			ws := warm.Clone()
			ws.Refresh(e, touched)
			if _, err := roadside.GreedyLazyWarm(e, ws); err != nil {
				b.Fatal(err)
			}
		}
	}
	var rb, dl fastest
	for r := 0; r < deltaRounds; r++ {
		if err := rb.time(name, rebuild); err != nil {
			return 0, err
		}
		if err := dl.time(name, delta); err != nil {
			return 0, err
		}
	}
	rebuildRes, rebuildNs := rb.res, rb.ns
	deltaRes, deltaNs := dl.res, dl.ns
	speedup := rebuildNs / deltaNs

	report.Add(benchio.Entry{
		Name: "rebuild_" + name, NsPerOp: rebuildNs, Iterations: rebuildRes.N,
		AllocsPerOp: rebuildRes.AllocsPerOp(), BytesPerOp: rebuildRes.AllocedBytesPerOp(),
	})
	report.Add(benchio.Entry{
		Name: "delta_" + name, NsPerOp: deltaNs, Iterations: deltaRes.N,
		AllocsPerOp: deltaRes.AllocsPerOp(), BytesPerOp: deltaRes.AllocedBytesPerOp(),
		BaselineNs: rebuildNs, Speedup: speedup,
	})
	fmt.Fprintf(w, "  %-24s %14.0f ns/op\n", "rebuild_"+name, rebuildNs)
	fmt.Fprintf(w, "  %-24s %14.0f ns/op   %.1fx vs rebuild\n", "delta_"+name, deltaNs, speedup)
	return speedup, nil
}

// runDelta executes the delta suite and writes the report. It replaces
// the standard benchmark set for the invocation.
func runDelta(w io.Writer, opt options) error {
	p, err := dublinProblem()
	if err != nil {
		return fmt.Errorf("dublin fixture: %w", err)
	}
	digest, err := roadside.ProblemDigest(p)
	if err != nil {
		return fmt.Errorf("dublin digest: %w", err)
	}
	base, err := roadside.NewEngine(p)
	if err != nil {
		return fmt.Errorf("dublin engine: %w", err)
	}
	warm := base.NewWarm()

	report := benchio.New(opt.label, opt.quick)
	fmt.Fprintf(w, "bench: delta suite, dublin fixture digest %s, %d flows\n",
		digest, p.Flows.Len())

	volOps := driftVolumeOps(p)
	fmt.Fprintf(w, "bench: volume drift rescales %d of %d flows\n", len(volOps), p.Flows.Len())
	volSpeedup, err := measureDrift(w, report, "volume_drift", base, warm, volOps)
	if err != nil {
		return err
	}

	churnOps, err := driftChurnOps(p)
	if err != nil {
		return err
	}
	if _, err := measureDrift(w, report, "add_remove", base, warm, churnOps); err != nil {
		return err
	}

	if opt.out != "" {
		if err := benchio.Write(opt.out, report); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench: report written to %s\n", opt.out)
	}
	if volSpeedup < deltaSpeedupGate {
		return fmt.Errorf("delta volume-drift speedup %.1fx below the %.0fx gate", volSpeedup, deltaSpeedupGate)
	}
	fmt.Fprintf(w, "bench: volume-drift update-vs-rebuild %.1fx (gate %.0fx)\n", volSpeedup, deltaSpeedupGate)
	return nil
}
