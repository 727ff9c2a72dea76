package core

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"roadside/internal/obs"
	"roadside/internal/utility"
)

// captureObserver records every event it receives; safe for concurrent use.
type captureObserver struct {
	mu     sync.Mutex
	steps  []obs.SolverStep
	phases []obs.Phase
	trials []obs.Trial
	runs   []obs.Run
}

func (c *captureObserver) SolverStep(ev obs.SolverStep) {
	c.mu.Lock()
	c.steps = append(c.steps, ev)
	c.mu.Unlock()
}

func (c *captureObserver) Phase(ev obs.Phase) {
	c.mu.Lock()
	c.phases = append(c.phases, ev)
	c.mu.Unlock()
}

func (c *captureObserver) Trial(ev obs.Trial) {
	c.mu.Lock()
	c.trials = append(c.trials, ev)
	c.mu.Unlock()
}

func (c *captureObserver) Run(ev obs.Run) {
	c.mu.Lock()
	c.runs = append(c.runs, ev)
	c.mu.Unlock()
}

func (c *captureObserver) phaseNames() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make(map[string]bool)
	for _, p := range c.phases {
		names[p.Component+"/"+p.Name] = true
	}
	return names
}

// TestEngineEmitsPhaseEvents checks that engines built while a process
// observer is installed report their preprocessing phases to it.
func TestEngineEmitsPhaseEvents(t *testing.T) {
	cap := &captureObserver{}
	prev := obs.SetDefault(cap)
	defer obs.SetDefault(prev)

	rng := rand.New(rand.NewSource(9))
	p := randomProblem(t, rng, 30, 6, 3, utility.Linear{D: 60})
	if _, err := NewEngine(p); err != nil {
		t.Fatal(err)
	}

	names := cap.phaseNames()
	for _, want := range []string{
		"core.engine/trees",
		"core.engine/detours",
		"core.engine/assemble",
	} {
		if !names[want] {
			t.Fatalf("engine construction did not emit phase %q; got %v", want, names)
		}
	}
	cap.mu.Lock()
	defer cap.mu.Unlock()
	for _, ph := range cap.phases {
		if ph.Component == "core.engine" && ph.Duration < 0 {
			t.Fatalf("phase %s/%s has negative duration", ph.Component, ph.Name)
		}
	}
}

// TestSolversEmitStepEvents checks that every solver reports one SolverStep
// per placed RAP through the observer captured at engine construction, and
// that WithObserver overrides it without mutating the original engine.
func TestSolversEmitStepEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randomProblem(t, rng, 30, 6, 4, utility.Linear{D: 60})
	e, err := NewEngine(p) // built under the default no-op observer
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []struct {
		name string
		run  func(*Engine) (*Placement, error)
	}{
		{"algorithm1", Algorithm1},
		{"algorithm2", Algorithm2},
		{"combined", GreedyCombined},
		{"lazy", GreedyLazy},
	} {
		cap := &captureObserver{}
		pl, err := s.run(e.WithObserver(cap))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(cap.steps) != len(pl.Nodes) {
			t.Fatalf("%s: %d step events for %d placed nodes", s.name, len(cap.steps), len(pl.Nodes))
		}
		for i, ev := range cap.steps {
			if ev.Solver != s.name && !(s.name == "combined" && ev.Solver == "combined") {
				t.Fatalf("%s: step %d reported solver %q", s.name, i, ev.Solver)
			}
			if ev.Step != i {
				t.Fatalf("%s: step event %d has Step=%d", s.name, i, ev.Step)
			}
			if ev.Node != int64(pl.Nodes[i]) {
				t.Fatalf("%s: step %d node %d, placement has %d", s.name, i, ev.Node, pl.Nodes[i])
			}
			if ev.Gain != pl.StepGains[i] {
				t.Fatalf("%s: step %d gain %v, placement has %v", s.name, i, ev.Gain, pl.StepGains[i])
			}
			if s.name != "lazy" && ev.Scanned <= 0 {
				t.Fatalf("%s: step %d scanned %d candidates", s.name, i, ev.Scanned)
			}
		}
		// The lazy solver additionally reports its heap-build phase.
		if s.name == "lazy" && !cap.phaseNames()["core.solver.lazy/init"] {
			t.Fatalf("lazy solver did not emit its init phase; got %v", cap.phaseNames())
		}
		// The original engine must still hold its construction-time
		// observer: rerunning on e directly must not reach cap.
		before := len(cap.steps)
		if _, err := s.run(e); err != nil {
			t.Fatal(err)
		}
		if len(cap.steps) != before {
			t.Fatalf("%s: WithObserver leaked into the original engine", s.name)
		}
	}
}

// TestRecorderCollectsSolverMetrics runs a solver into a full Recorder and
// checks the aggregated metrics and trace output look right end to end.
func TestRecorderCollectsSolverMetrics(t *testing.T) {
	rec := obs.NewRecorder()
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(t, rng, 30, 6, 4, utility.Linear{D: 60})
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := GreedyCombined(e.WithObserver(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Metrics.Counter("core.solver.combined.steps").Value(); got != int64(len(pl.Nodes)) {
		t.Fatalf("steps counter = %d, want %d", got, len(pl.Nodes))
	}
	if got := rec.Metrics.Counter("core.solver.combined.candidates_scanned").Value(); got <= 0 {
		t.Fatalf("candidates_scanned = %d, want > 0", got)
	}
	var sb strings.Builder
	if err := rec.Metrics.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "core.solver.combined.steps") {
		t.Fatalf("metrics text output missing solver counters:\n%s", sb.String())
	}
}

// TestSolverTableNamesObsSolvers pins the solver table to the wire and
// observability contract: the canonical names in order, lookup by each
// name, no row for an unknown name, and every step event a row's solver
// emits carrying that row's name (perfbench and CI key on these strings).
func TestSolverTableNamesObsSolvers(t *testing.T) {
	var names []string
	for _, s := range Solvers() {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, ","), "algorithm1,algorithm2,combined,lazy"; got != want {
		t.Fatalf("solver table %s, want %s", got, want)
	}
	if _, ok := LookupSolver("exhaustive"); ok {
		t.Fatal("LookupSolver found a row for a non-core solver")
	}
	e, err := NewEngine(fig4Problem(t, utility.Linear{D: 6}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		s, ok := LookupSolver(name)
		if !ok || s.Name != name {
			t.Fatalf("LookupSolver(%q) = %q, %v", name, s.Name, ok)
		}
		cap := &captureObserver{}
		pl, err := s.Solve(e.WithObserver(cap))
		if err != nil {
			t.Fatal(err)
		}
		if len(cap.steps) != len(pl.Nodes) {
			t.Fatalf("%s: %d step events for %d steps", name, len(cap.steps), len(pl.Nodes))
		}
		for _, ev := range cap.steps {
			if ev.Solver != name {
				t.Fatalf("%s emitted a step event named %q", name, ev.Solver)
			}
		}
	}
}
