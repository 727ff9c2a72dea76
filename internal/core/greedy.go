package core

import (
	"slices"
	"time"

	"roadside/internal/graph"
	"roadside/internal/obs"
)

// The three eager greedies — Algorithm 1, Algorithm 2 and GreedyCombined —
// are one step loop, eagerGreedy, run with two parts:
//
//   - a stepState the candidates' marginal gains are read from: the
//     engine's detourState (each flow's best detour and banked gain, under
//     every objective economy) for Algorithm 2 and GreedyCombined, and
//     Algorithm 1's coverState, which marks a flow covered only once a
//     placed visit has a positive gain (DESIGN.md records why the two
//     stay separate).
//   - a stepRule that picks each step's winner from the scan's argmaxes
//     and names the solver to the step observer.
//
// Step 0 scans every candidate against the empty state; each later step
// re-scores only the candidates on a flow through the previous winner and
// reuses every other cached marginal gain, which placing the winner cannot
// have changed (see eagerScan). Argmaxes go to the highest gain, ties to
// the lowest node ID. The step-0 scan fans across workers on large
// instances and is bit-identical to a serial scan, so no result depends on
// the worker count. Its pairs are every candidate's standalone gain, which
// Algorithm 2 and GreedyCombined publish as the engine's vector (see
// warm.go) unless a solver already has; GreedyLazy seeds its heap from
// that vector instead of scanning.
//
// All four solvers share one termination contract: the step loop ends as
// soon as the winning marginal gain drops to zero (or the candidate set is
// exhausted), even if budget remains. Submodularity guarantees a zero
// winner stays zero forever, so continuing could only pad Nodes/StepGains
// with dead entries — and would break the documented equivalence between
// GreedyLazy (which prunes zero-gain heap entries) and GreedyCombined.
// Placements may therefore be shorter than K; every recorded step gain is
// strictly positive. Each placed step is reported to the engine's
// obs.StepObserver with the measured scan work; the default no-op observer
// keeps this free. The solver table at the end of this file is the one
// place a solver name maps to its implementation.

// stepState is what an eager greedy scans and advances. marginalGain is a
// pure read returning the uncovered-flow and covered-flow gain parts.
type stepState interface {
	marginalGain(e *Engine, v graph.NodeID) (u, c float64)
	place(e *Engine, v graph.NodeID)
}

// coverState is Algorithm 1's weighted maximum-coverage state: only flows
// no placed RAP attracts a driver from count, so c is always zero.
type coverState struct {
	covered []bool
}

func (s *coverState) marginalGain(e *Engine, v graph.NodeID) (u, c float64) {
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		gains := sh.gainsAt(v, lo, hi)
		for i, f := range sh.visitFlow[lo:hi] {
			if !s.covered[f] {
				u += gains[i]
			}
		}
	}
	return u, 0
}

func (s *coverState) place(e *Engine, v graph.NodeID) {
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		gains := sh.gainsAt(v, lo, hi)
		for i, f := range sh.visitFlow[lo:hi] {
			if gains[i] > 0 {
				s.covered[f] = true
			}
		}
	}
}

// stepRule is how one eager greedy picks each step's winner from a scan.
type stepRule struct {
	solver string // the obs.SolverStep solver name
	kinds  bool   // record Placement.StepKinds (Algorithm 2 only)
	// pick returns the winner and, for rules recording kinds, its kind.
	pick func(b *scanBest) (w scanned, kind string)
}

var (
	coverageRule = &stepRule{solver: "algorithm1",
		pick: func(b *scanBest) (scanned, string) { return b.byU, "" }}
	compositeRule = &stepRule{solver: "algorithm2", kinds: true, pick: pickComposite}
	combinedRule  = &stepRule{solver: "combined",
		pick: func(b *scanBest) (scanned, string) { return b.bySum, "" }}
)

// pickComposite is Algorithm 2's rule: the better of candidate (i), the
// most uncovered gain, and candidate (ii), the most covered gain. Ties
// favor covering new flows, which matches the paper's presentation order.
// Both components are non-negative, so the winner's total is zero exactly
// when both candidates' own gains are: the driver's zero-gain stop is the
// paper's "both candidates gain nothing".
func pickComposite(b *scanBest) (scanned, string) {
	if b.byC.c > b.byU.u {
		return b.byC, StepKindCovered
	}
	return b.byU, StepKindUncovered
}

// eagerGreedy is the step loop: scan, pick, stop on a zero (or, for an
// exhausted candidate set, -Inf) total gain, place, record. The scan's
// (uncovered, covered) pair is the winner's step gain; nothing is
// re-evaluated.
func (e *Engine) eagerGreedy(workers int, st stepState, rule *stepRule) *Placement {
	k := e.p.K
	sc := e.newEagerScan(st)
	result := &Placement{
		Nodes:     make([]graph.NodeID, 0, k),
		StepGains: make([]float64, 0, k),
	}
	if rule.kinds {
		result.StepKinds = make([]string, 0, k)
	}
	o := e.observer()
	for step := 0; step < k; step++ {
		best, ss := sc.scan(workers)
		w, kind := rule.pick(&best)
		gain := w.u + w.c
		if gain <= 0 {
			break
		}
		sc.place(w.node)
		result.Nodes = append(result.Nodes, w.node)
		result.StepGains = append(result.StepGains, gain)
		if rule.kinds {
			result.StepKinds = append(result.StepKinds, kind)
		}
		o.SolverStep(obs.SolverStep{
			Solver: rule.solver, Step: step, Node: int64(w.node),
			Gain: gain, Kind: kind, Scanned: ss.evaluated, Chunks: ss.chunks,
		})
	}
	result.Attracted = e.Evaluate(result.Nodes)
	return result
}

// Algorithm1 is the paper's Algorithm 1: the classic greedy for weighted
// maximum coverage. At each of the k steps it places a RAP at the
// intersection attracting the most drivers from still-uncovered flows, then
// marks every flow with a positive detour probability at that intersection
// as covered. Under the threshold utility this achieves a 1-1/e
// approximation (Section III-B); under decreasing utilities it serves as
// the "coverage factor only" ablation. It stops early once no candidate
// attracts drivers from any uncovered flow.
func Algorithm1(e *Engine) (*Placement, error) {
	return Algorithm1Workers(e, defaultWorkers())
}

// Algorithm1Workers is Algorithm1 with an explicit scan worker count.
func Algorithm1Workers(e *Engine, workers int) (*Placement, error) {
	cover := &coverState{covered: make([]bool, e.p.Flows.Len())}
	return e.eagerGreedy(workers, cover, coverageRule), nil
}

// Candidate kinds recorded by Algorithm2.
const (
	StepKindUncovered = "uncovered"
	StepKindCovered   = "covered"
)

// Algorithm2 is the paper's Algorithm 2: the composite greedy for
// decreasing utility functions. At each step it evaluates two candidates —
// (i) the intersection attracting the most drivers from uncovered flows and
// (ii) the intersection attracting the most additional drivers from covered
// flows by offering smaller detours — and places a RAP at the better one.
// Theorem 2 proves a 1-1/sqrt(e) approximation for any non-increasing
// utility. With the threshold utility it reduces to Algorithm 1 (candidate
// ii always gains zero). It stops early once both candidates' gains drop
// to zero — i.e. every remaining intersection has zero marginal gain.
func Algorithm2(e *Engine) (*Placement, error) {
	return Algorithm2Workers(e, defaultWorkers())
}

// Algorithm2Workers is Algorithm2 with an explicit scan worker count.
func Algorithm2Workers(e *Engine, workers int) (*Placement, error) {
	return e.eagerGreedy(workers, e.newDetourState(), compositeRule), nil
}

// GreedyCombined is the natural single-objective greedy discussed in
// Section III-C's motivating example: at each step it places a RAP at the
// intersection with the largest total marginal gain (uncovered + covered
// parts together). Its per-step gain dominates both of Algorithm 2's
// candidates, so it inherits the 1-1/sqrt(e) bound; it is included as an
// ablation to compare against the paper's composite rule. It stops early
// once the best total marginal gain is zero, so its placement stays
// step-for-step comparable with GreedyLazy's pruned heap.
func GreedyCombined(e *Engine) (*Placement, error) {
	return GreedyCombinedWorkers(e, defaultWorkers())
}

// GreedyCombinedWorkers is GreedyCombined with an explicit scan worker
// count.
func GreedyCombinedWorkers(e *Engine, workers int) (*Placement, error) {
	return e.eagerGreedy(workers, e.newDetourState(), combinedRule), nil
}

// GreedyLazy is a lazy-evaluation variant of GreedyCombined exploiting the
// submodularity of the objective: cached marginal gains from earlier steps
// upper-bound current gains, so most candidates need no re-evaluation. It
// returns the same placement as GreedyCombined (up to ties) at a fraction
// of the evaluations and is benchmarked as a performance ablation.
//
// Candidates whose refreshed bound drops to zero are pruned outright:
// submodularity guarantees their gain can never recover, so keeping them
// only delays termination. When the budget exceeds the number of useful
// candidates, the step loop therefore ends as soon as the queue drains
// instead of placing zero-gain RAPs — the same zero-gain termination the
// eager solvers apply at their scans.
func GreedyLazy(e *Engine) (*Placement, error) {
	return greedyLazy(e, nil)
}

// greedyLazy is the shared body of GreedyLazy and GreedyLazyWarm. init
// holds each candidate's step-0 upper bound, its standalone gain, by
// position in e.cands; nil means the engine's own vector (see warm.go),
// computed on first use. A current Warm holds the same values, so both
// paths push bit-identical bounds in identical order and the placements
// coincide bit for bit.
func greedyLazy(e *Engine, init []float64) (*Placement, error) {
	p := e.p
	state := e.newDetourState()
	result := &Placement{
		Nodes:     make([]graph.NodeID, 0, p.K),
		StepGains: make([]float64, 0, p.K),
	}
	// Priority queue of candidates by stale upper bound.
	type entry struct {
		node  graph.NodeID
		bound float64
		step  int // step at which bound was computed
	}
	heap := make([]entry, 0, len(e.cands))
	push := func(en entry) {
		heap = append(heap, en)
		i := len(heap) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if heap[parent].bound >= heap[i].bound {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() entry {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			biggest := i
			if l < last && heap[l].bound > heap[biggest].bound {
				biggest = l
			}
			if r < last && heap[r].bound > heap[biggest].bound {
				biggest = r
			}
			if biggest == i {
				break
			}
			heap[i], heap[biggest] = heap[biggest], heap[i]
			i = biggest
		}
		return top
	}
	o := e.observer()
	initStart := time.Now()
	if init == nil {
		init = e.standaloneGains()
	}
	for i, v := range e.cands {
		if b := init[i]; b > 0 {
			push(entry{node: v, bound: b, step: 0})
		}
	}
	o.Phase(obs.Phase{
		Component: "core.solver.lazy", Name: "init",
		Items: len(e.cands), Workers: 1,
		Start: initStart, Duration: time.Since(initStart),
	})
	for step := 0; step < p.K; step++ {
		var chosen entry
		found := false
		reevals := 0
		for len(heap) > 0 {
			top := pop()
			if top.step == step {
				// Fresh evaluation: by submodularity no other candidate
				// can beat it.
				chosen, found = top, true
				break
			}
			reevals++
			u, c := state.marginalGain(e, top.node)
			if b := u + c; b > 0 {
				push(entry{node: top.node, bound: b, step: step})
			}
		}
		if !found {
			break // every remaining candidate's gain has decayed to zero
		}
		state.place(e, chosen.node)
		result.Nodes = append(result.Nodes, chosen.node)
		result.StepGains = append(result.StepGains, chosen.bound)
		o.SolverStep(obs.SolverStep{
			Solver: "lazy", Step: step, Node: int64(chosen.node),
			Gain: chosen.bound, Scanned: reevals, Reevals: reevals,
		})
	}
	result.Attracted = e.Evaluate(result.Nodes)
	return result, nil
}

// Solver is one row of the solver table: a core solver under the name the
// wire protocol, CLIs, experiment configs and step observer all use.
type Solver struct {
	Name string
	run  func(e *Engine, workers int) (*Placement, error)
}

// Solve runs the solver with its scans fanned across GOMAXPROCS workers.
func (s Solver) Solve(e *Engine) (*Placement, error) { return s.run(e, defaultWorkers()) }

// SolveWorkers runs with an explicit scan worker count (lazy ignores it).
func (s Solver) SolveWorkers(e *Engine, workers int) (*Placement, error) { return s.run(e, workers) }

var solverTable = []Solver{
	{"algorithm1", Algorithm1Workers},
	{"algorithm2", Algorithm2Workers},
	{"combined", GreedyCombinedWorkers},
	{"lazy", func(e *Engine, _ int) (*Placement, error) { return GreedyLazy(e) }},
}

// Solvers returns the solver table in its canonical order.
func Solvers() []Solver { return slices.Clone(solverTable) }

// LookupSolver returns the solver registered under name.
func LookupSolver(name string) (Solver, bool) {
	for _, s := range solverTable {
		if s.Name == name {
			return s, true
		}
	}
	return Solver{}, false
}
