// Package obs is the repository's zero-dependency observability layer: a
// metrics registry (counters, gauges, histograms with atomic hot paths), a
// span tracer with JSON export, and the StepObserver hook interface that
// the placement solvers, engine preprocessing, graph tree batches, and
// experiment trial fan-out report into.
//
// The package sits below every other internal package in the layering DAG
// (it imports only the standard library), so any layer may emit events
// without creating cycles. The default observer is Nop: instrumented hot
// paths pay one atomic load, one interface call, and zero allocations, so
// observation can stay compiled in without disturbing the benchmarked
// solver numbers (verify.sh gates the overhead at 2%).
//
// Event granularity is deliberately coarse-grained where code is hot:
// solvers report one SolverStep per placed RAP (not per candidate), and
// construction phases report one Phase per stage. Per-candidate work is
// carried as counts inside those events.
package obs

import (
	"sync/atomic"
	"time"
)

// SolverStep describes one completed step of a greedy solver: the RAP it
// chose, the gain it banked, and how much scanning work the step cost.
type SolverStep struct {
	// Solver is the canonical solver name ("algorithm1", "algorithm2",
	// "combined", "lazy").
	Solver string
	// Step is the 0-based step index.
	Step int
	// Node is the chosen intersection's node ID.
	Node int64
	// Gain is the step's marginal gain (the value recorded in StepGains).
	Gain float64
	// Kind is Algorithm 2's candidate kind ("uncovered"/"covered"), empty
	// for the other solvers.
	Kind string
	// Scanned counts the marginal-gain evaluations this step performed.
	// For the eager solvers, step 0 evaluates every unplaced candidate and
	// each later step only the candidates on a flow through the previous
	// winner (the rest keep their cached gains); for the lazy solver it is
	// the heap re-evaluations, see Reevals.
	Scanned int
	// Reevals counts lazy-heap bound refreshes popped before the winner
	// was certified; zero for the eager solvers.
	Reevals int
	// Chunks is the number of contiguous candidate chunks the scan fanned
	// across (1 = inline serial scan).
	Chunks int
}

// Phase describes one timed stage of a larger computation: an engine
// construction phase, a batched tree build, or a worker-pool fan-out.
type Phase struct {
	// Component identifies the instrumented site ("core.engine",
	// "graph.trees", "par.do", "core.solver.lazy", ...).
	Component string
	// Name is the stage within the component ("trees", "detours",
	// "assemble", "batch", "fanout", "init").
	Name string
	// Items is the number of units the stage processed (trees built,
	// flows walked, visits assembled, work items fanned out).
	Items int
	// Workers is the worker bound the stage ran under.
	Workers int
	// Start is when the stage began; Duration its wall time.
	Start    time.Time
	Duration time.Duration
}

// Trial describes one completed experiment trial for one algorithm.
type Trial struct {
	// Runner identifies the harness ("experiment.general",
	// "experiment.manhattan").
	Runner string
	// Name is the experiment's short identifier (e.g. "fig10a").
	Name string
	// Trial is the trial index; Seed the derived per-trial seed actually
	// used, so a single trial can be replayed in isolation.
	Trial int
	Seed  int64
	// Algo is the algorithm evaluated; Objective its attracted-customers
	// objective at the largest budget.
	Algo      string
	Objective float64
	// Duration is the wall time of the whole trial (shared by the trial's
	// per-algorithm events).
	Duration time.Duration
}

// Run carries run-level metadata the experiment harness attaches to every
// trace: which runner ran, with what configuration, seed, and parallelism.
type Run struct {
	Runner  string
	Name    string
	Seed    int64
	Trials  int
	Workers int
	// Config is a rendered key/value view of the run's configuration.
	Config map[string]string
}

// StepObserver receives events from instrumented code. Implementations
// must be safe for concurrent use: solvers, construction phases, and
// experiment trials report from worker goroutines. Events arrive by value
// so implementations may retain them freely.
type StepObserver interface {
	SolverStep(SolverStep)
	Phase(Phase)
	Trial(Trial)
	Run(Run)
}

// Nop is the default observer: every method is an empty, allocation-free
// no-op, so instrumented hot paths cost one interface call when
// observation is off.
type Nop struct{}

func (Nop) SolverStep(SolverStep) {}
func (Nop) Phase(Phase)           {}
func (Nop) Trial(Trial)           {}
func (Nop) Run(Run)               {}

// defaultObserver holds the process-wide observer behind an atomic pointer
// so hot paths read it without locks.
var defaultObserver atomic.Pointer[StepObserver]

func init() {
	var o StepObserver = Nop{}
	defaultObserver.Store(&o)
}

// Default returns the process-wide observer. It is Nop unless SetDefault
// installed something else.
func Default() StepObserver { return *defaultObserver.Load() }

// SetDefault installs o as the process-wide observer and returns the
// previous one so callers (tests, command-line wiring) can restore it.
// A nil o resets to Nop.
func SetDefault(o StepObserver) StepObserver {
	if o == nil {
		o = Nop{}
	}
	prev := defaultObserver.Swap(&o)
	return *prev
}
