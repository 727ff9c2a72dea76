package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadside/internal/benchio"
	"roadside/internal/obs"
)

// TestRunQuick exercises the full quick-mode path: run the benchmark set at
// a tiny benchtime, write a report, and re-check it against itself (which
// can never regress).
func TestRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var buf bytes.Buffer
	err := run(&buf, options{
		out: out, label: "test", quick: true, benchtime: "5ms", maxRegress: 2.0,
	})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	rep, err := benchio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Quick || rep.Label != "test" {
		t.Fatalf("report header: %+v", rep)
	}
	for _, name := range []string{
		"engine_construct_dublin", "engine_construct_dublin_p1",
		"solver_algorithm1", "solver_algorithm2", "solver_combined", "solver_lazy",
		"evaluate", "prefix_sweep_naive", "prefix_sweep_incremental",
	} {
		e, ok := rep.Lookup(name)
		if !ok {
			t.Fatalf("entry %q missing from report", name)
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Fatalf("entry %q not measured: %+v", name, e)
		}
	}
	if _, ok := rep.Lookup("figure_10"); ok {
		t.Fatal("quick mode must skip figure benchmarks")
	}
	if e, _ := rep.Lookup("solver_algorithm2"); e.BaselineNs <= 0 || e.Speedup <= 0 {
		t.Fatalf("seed baseline not applied: %+v", e)
	}

	// Self-comparison is the degenerate regression check: ratios hover
	// around 1.0. The wide 10x budget keeps tiny-benchtime jitter from
	// flaking the test; the real gate uses 2x at a 300ms benchtime. The obs
	// overhead gate rides along with the same widened budget.
	buf.Reset()
	err = run(&buf, options{
		label: "recheck", quick: true, benchtime: "5ms",
		baseline: out, check: true, maxRegress: 10.0,
		checkObs: true, maxObsOverhead: 10.0,
	})
	if err != nil {
		t.Fatalf("self-check flagged a regression: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Fatalf("expected no-regressions line, got:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "observer overhead within") {
		t.Fatalf("expected obs-overhead line, got:\n%s", buf.String())
	}
}

// TestRunMetrics checks the -metrics/-trace path: solver counters aggregate
// across benchmark iterations and the trace file round-trips as JSON.
func TestRunMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	err := run(&buf, options{
		label: "metrics", quick: true, benchtime: "5ms", maxRegress: 2.0,
		metrics: true, tracePath: tracePath,
	})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	for _, want := range []string{
		"bench: metrics",
		"core.solver.combined.steps",
		"core.solver.lazy.steps",
		"spans written to",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var exp obs.TraceExport
	if err := json.Unmarshal(data, &exp); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if exp.Schema != obs.TraceSchema {
		t.Fatalf("trace schema %q", exp.Schema)
	}
	if exp.Meta["bench.label"] != "metrics" {
		t.Fatalf("trace meta missing run label: %v", exp.Meta)
	}
}

// quickEntryNames is the benchmark set measured in quick mode.
var quickEntryNames = []string{
	"engine_construct_dublin", "engine_construct_dublin_p1",
	"solver_algorithm1", "solver_algorithm2", "solver_combined", "solver_lazy",
	"evaluate", "prefix_sweep_naive", "prefix_sweep_incremental",
}

// writeSyntheticBaseline builds a roadside-bench/v1 report whose entries all
// claim the given ns/op, so regression ratios against a real run are fully
// controlled by the test.
func writeSyntheticBaseline(t *testing.T, ns float64) string {
	t.Helper()
	rep := benchio.New("synthetic", true)
	for _, name := range quickEntryNames {
		rep.Add(benchio.Entry{Name: name, NsPerOp: ns, Iterations: 1})
	}
	path := filepath.Join(t.TempDir(), "BENCH_synthetic.json")
	if err := benchio.Write(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunBaselineMissing pins the error path for an unreadable baseline.
func TestRunBaselineMissing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 2.0,
		baseline: filepath.Join(t.TempDir(), "nope.json"),
	})
	if err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestRunCheckFailsOnRegression feeds a baseline that claims every entry
// used to take a fraction of a nanosecond: any real measurement regresses
// past the limit, so -check must fail and name the count.
func TestRunCheckFailsOnRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	baseline := writeSyntheticBaseline(t, 0.001)
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 2.0,
		baseline: baseline, check: true,
	})
	if err == nil || !strings.Contains(err.Error(), "regressed past") {
		t.Fatalf("err = %v, want regression failure", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION:") {
		t.Fatalf("regressions not reported:\n%s", buf.String())
	}
}

// TestRunReportOnlyRegression: without -check the same regressions are
// printed but the run still succeeds (verify.sh's report-only smoke mode).
func TestRunReportOnlyRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	baseline := writeSyntheticBaseline(t, 0.001)
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 2.0,
		baseline: baseline,
	})
	if err != nil {
		t.Fatalf("report-only mode failed: %v", err)
	}
	if !strings.Contains(buf.String(), "REGRESSION:") {
		t.Fatalf("regressions not reported:\n%s", buf.String())
	}
}

// TestRunCheckObsFailsOnOverhead: with a baseline claiming sub-nanosecond
// solver entries, the no-op-observer overhead gate must trip even after its
// re-measurement retries.
func TestRunCheckObsFailsOnOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	baseline := writeSyntheticBaseline(t, 0.001)
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 1e12, // isolate the obs gate
		baseline: baseline, checkObs: true, maxObsOverhead: 1.02,
	})
	if err == nil || !strings.Contains(err.Error(), "observer overhead past") {
		t.Fatalf("err = %v, want obs-overhead failure", err)
	}
	if !strings.Contains(buf.String(), "obs-overhead") {
		t.Fatalf("per-entry ratios not reported:\n%s", buf.String())
	}
}

// TestRunTraceWriteError pins the unwritable-trace-path error.
func TestRunTraceWriteError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 2.0,
		tracePath: filepath.Join(t.TempDir(), "no", "such", "dir", "trace.json"),
	})
	if err == nil {
		t.Fatal("unwritable trace path accepted")
	}
}

// TestRunPprof starts the profiling listener on an ephemeral port.
func TestRunPprof(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	var buf bytes.Buffer
	err := run(&buf, options{
		quick: true, benchtime: "5ms", maxRegress: 2.0, pprofAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pprof serving on") {
		t.Fatalf("pprof line missing:\n%s", buf.String())
	}
}

// TestRunFullIncludesFigures runs the non-quick set at the minimum
// benchtime (one iteration per entry) to pin that full mode measures the
// end-to-end figure benchmarks quick mode skips.
func TestRunFullIncludesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	out := filepath.Join(t.TempDir(), "BENCH_full.json")
	var buf bytes.Buffer
	err := run(&buf, options{out: out, label: "full", benchtime: "1ns", maxRegress: 2.0})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	rep, err := benchio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"figure_10", "figure_11", "figure_12", "figure_13"} {
		e, ok := rep.Lookup(fig)
		if !ok || e.Iterations <= 0 {
			t.Fatalf("full mode missing %s: %+v", fig, e)
		}
	}
}

// TestRunDelta drives the -delta suite: the rebuild/delta entry pairs for
// both drift shapes and the >=10x volume-drift gate, which it also pins
// as passing. Each timing window runs 50ms: at 5ms a window under -race
// on 2 cores held a few delta iterations, so one lost scheduler slice
// could drop the ratio below 10x.
func TestRunDelta(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	out := filepath.Join(t.TempDir(), "BENCH_delta.json")
	var buf bytes.Buffer
	err := run(&buf, options{out: out, label: "delta", delta: true, benchtime: "50ms"})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	rep, err := benchio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"rebuild_volume_drift", "delta_volume_drift",
		"rebuild_add_remove", "delta_add_remove",
	} {
		e, ok := rep.Lookup(name)
		if !ok {
			t.Fatalf("entry %q missing from report", name)
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Fatalf("entry %q not measured: %+v", name, e)
		}
	}
	for _, name := range []string{"delta_volume_drift", "delta_add_remove"} {
		e, _ := rep.Lookup(name)
		if e.BaselineNs <= 0 || e.Speedup <= 0 {
			t.Fatalf("%s lacks the rebuild reference: %+v", name, e)
		}
	}
	vol, _ := rep.Lookup("delta_volume_drift")
	t.Logf("volume-drift speedup %.1fx", vol.Speedup)
	if vol.Speedup < 10 {
		t.Fatalf("volume-drift speedup %.1fx under the gate", vol.Speedup)
	}
	if !strings.Contains(buf.String(), "vs rebuild") ||
		!strings.Contains(buf.String(), "update-vs-rebuild") {
		t.Fatalf("summary lines missing:\n%s", buf.String())
	}
}

// TestRunCheckObsFlagValidation pins the gate's precondition errors.
func TestRunCheckObsFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, options{quick: true, checkObs: true, maxObsOverhead: 1.02})
	if err == nil || !strings.Contains(err.Error(), "-baseline") {
		t.Fatalf("missing-baseline error, got %v", err)
	}
	err = run(&buf, options{quick: true, checkObs: true, metrics: true, baseline: "x.json"})
	if err == nil || !strings.Contains(err.Error(), "no-op observer") {
		t.Fatalf("metrics+check-obs error, got %v", err)
	}
}

// TestRunLargeSmoke drives the -large-smoke suite end to end: the
// many-to-many comparison pair, the one-shot mega timings, the sharded
// engine, and the report. The smoke preset is the same code path the
// CI-opt-in -large run takes at 1M nodes.
func TestRunLargeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	out := filepath.Join(t.TempDir(), "BENCH_large.json")
	var buf bytes.Buffer
	err := run(&buf, options{
		out: out, label: "large-smoke", largeSmoke: true, benchtime: "5ms",
	})
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	rep, err := benchio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"m2m_trees_fanout", "m2m_buckets",
		"citygen_mega", "flows_local", "engine_construct_mega",
	} {
		e, ok := rep.Lookup(name)
		if !ok {
			t.Fatalf("entry %q missing from report", name)
		}
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Fatalf("entry %q not measured: %+v", name, e)
		}
	}
	buckets, _ := rep.Lookup("m2m_buckets")
	if buckets.BaselineNs <= 0 || buckets.Speedup <= 0 {
		t.Fatalf("m2m_buckets lacks the trees fan-out reference: %+v", buckets)
	}
	if !strings.Contains(buf.String(), "vs trees fan-out") ||
		!strings.Contains(buf.String(), "shards") {
		t.Fatalf("summary lines missing:\n%s", buf.String())
	}
}
