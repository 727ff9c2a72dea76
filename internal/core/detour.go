package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"roadside/internal/graph"
	"roadside/internal/obs"
)

// Engine precomputes detour distances for a problem instance and evaluates
// placements. Construction runs two Dijkstras per shop plus one reverse
// Dijkstra per distinct flow destination — matching the paper's
// preprocessing budget while staying near-linear in practice — and fans the
// independent runs across a bounded worker pool.
//
// The incidence data lives in flat CSR-style arenas (offsets plus packed
// parallel arrays, the same layout internal/graph uses for adjacency)
// rather than per-node maps: the greedy inner loops walk contiguous memory
// and never chase pointers. Each visit's base gain
// Utility.Prob(detour, alpha) * Volume is precomputed at construction, so
// evaluation and marginal-gain scans are branch-light float loops with no
// utility-interface dispatch.
//
// An Engine is immutable after construction and safe for concurrent use,
// with one exception: Apply mutates the arenas in place and requires
// exclusive ownership for its duration. ApplyCopy is the concurrent-safe
// variant — it leaves the receiver untouched and returns a derived engine
// sharing every unmodified arena (see delta.go).
type Engine struct {
	p *Problem

	// shards hold the CSR arenas, partitioned by contiguous global flow
	// ranges (see shard.go). One shard is the common case; instances whose
	// visit count exceeds the construction budget split into several, each
	// with its own int32 offsets. Per-node scans walk the shards in order,
	// which is ascending flow order — bit-identical to the old flat layout.
	shards []arenaShard

	// cands is the effective candidate list; candLo/candSpan describe the
	// ID range it occupies, sizing the flat placed-sets the greedy scans
	// use in place of a map.
	cands    []graph.NodeID
	candLo   graph.NodeID
	candSpan int

	// obs receives step and phase events from the solvers running on this
	// engine. It is captured from obs.Default at construction (Nop unless
	// a recorder is installed) and never nil afterwards; WithObserver
	// derives an engine reporting elsewhere.
	obs obs.StepObserver

	// comp is the composition branch resolved from the problem's objective
	// model at construction (see objective.go). The zero value compBest is
	// the paper objective; the greedy state loops branch on it once per
	// shard, outside the hot per-visit loops.
	comp compMode

	// Delta-layer state (see delta.go). The shop trees are retained so an
	// added flow's detour rows can be computed without re-running
	// preprocessing — the graph and shops never change under flow updates,
	// so these are bit-identical to what a fresh build would recompute.
	// maxShardVisits is the construction budget, needed to keep the shard
	// partition of a mutated engine equal to a fresh build's.
	toShops, fromShops []*graph.Tree
	maxShardVisits     int

	// sa is the standalone-gain vector every greedy starts from and ci the
	// candidate position index re-scoring it needs (see warm.go). Budget
	// and observer copies share both; updated engines share ci and inherit
	// sa's values.
	sa *standalone
	ci *candIndex
}

// defaultWorkers is the worker count used by the exported entry points.
// The machine-dependent read is safe here: results are bit-identical at
// any worker count (par.Do writes index-disjoint slots, assembled in
// deterministic order), so GOMAXPROCS only sets the degree of
// parallelism, never the output — the parallel-identity battery enforces
// exactly this.
//
//lint:ignore detrand worker count affects speed only; parallel-identity tests pin bit-equality across counts
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NewEngine validates the problem and precomputes all detour distances,
// parallelizing the independent Dijkstra runs and per-flow detour
// computations across GOMAXPROCS workers. The result is bit-identical to a
// serial construction: every parallel phase writes to index-disjoint slots
// and is assembled in deterministic order.
func NewEngine(p *Problem) (*Engine, error) {
	return newEngine(p, defaultWorkers())
}

// newEngine is NewEngine with an explicit worker count; workers <= 1 is the
// serial reference path used by the determinism tests. The MaxInt32 shard
// budget yields a single shard for every instance the old flat arenas could
// hold; larger instances split automatically (see shard.go).
func newEngine(p *Problem, workers int) (*Engine, error) {
	return buildEngine(p, workers, math.MaxInt32)
}

// ErrArenaOverflow reports a problem whose total visit count exceeds the
// int32 offset range of the CSR arenas.
var ErrArenaOverflow = errors.New("core: visit arena exceeds int32 offset range")

// flowOffsets builds the flow arena's offset array from per-flow visit
// counts, guarding the int32 conversions: past 2^31-1 total visits the
// offsets would silently wrap and every downstream lookup would read
// garbage, so construction fails loudly instead. The running total is
// accumulated in 64 bits so the guard itself cannot overflow.
func flowOffsets(lens []int) ([]int32, int, error) {
	off := make([]int32, len(lens)+1)
	var total int64
	for i, n := range lens {
		total += int64(n)
		if total > math.MaxInt32 {
			return nil, 0, fmt.Errorf("%w: %d flows need %d visit slots, max %d",
				ErrArenaOverflow, len(lens), total, math.MaxInt32)
		}
		off[i+1] = int32(total)
	}
	return off, int(total), nil
}

// observer returns the engine's step observer, defaulting to the no-op
// for zero-value engines that never went through newEngine.
func (e *Engine) observer() obs.StepObserver {
	if e.obs == nil {
		return obs.Nop{}
	}
	return e.obs
}

// WithObserver returns an engine that reports solver steps and phases to
// o instead of the observer captured at construction. The copy shares
// every arena with the receiver (engines are immutable), so it costs one
// struct copy; a nil o silences reporting.
func (e *Engine) WithObserver(o obs.StepObserver) *Engine {
	cp := *e
	if o == nil {
		cp.obs = obs.Nop{}
	} else {
		cp.obs = o
	}
	return &cp
}

// detourValue computes the paper's detour distance d = d' + d” - d”' for a
// driver receiving the advertisement at node v while heading to dest, given
// dTriplePrime = dist(v, dest) from the destination's many-to-many column.
// With multiple shops the driver detours to the one minimizing d' + d” (the
// paper's multi-shop extension). If no shop is reachable in both
// directions, no detour exists and the result is +Inf.
func detourValue(toShops, fromShops []*graph.Tree, v, dest graph.NodeID, dTriplePrime float64) float64 {
	if math.IsInf(dTriplePrime, 1) {
		return math.Inf(1)
	}
	best := math.Inf(1)
	for i := range toShops {
		dPrime := toShops[i].Dist(v)            // v -> shop
		dDoublePrime := fromShops[i].Dist(dest) // shop -> dest
		if via := dPrime + dDoublePrime; via < best {
			best = via
		}
	}
	if math.IsInf(best, 1) {
		return math.Inf(1)
	}
	d := best - dTriplePrime
	if d < 0 {
		// Triangle inequality guarantees d >= 0; tiny negatives are
		// floating-point noise.
		d = 0
	}
	return d
}

// Problem returns the instance the engine was built for.
func (e *Engine) Problem() *Problem { return e.p }

// Candidates returns the effective candidate list. The slice is shared and
// must not be modified.
func (e *Engine) Candidates() []graph.NodeID { return e.cands }

// Detour returns the detour distance a driver of flow f incurs when
// receiving the advertisement at node v, or +Inf if v is not on the flow's
// path (no advertisement is received there). The lookup binary-searches the
// flow's sorted node list in its owning shard instead of scanning the path.
func (e *Engine) Detour(f int, v graph.NodeID) float64 {
	sh := e.shardForFlow(f)
	lo, hi := sh.flowRange(f)
	nodes := sh.flowNode[lo:hi]
	i := sort.Search(len(nodes), func(i int) bool { return nodes[i] >= v })
	if i < len(nodes) && nodes[i] == v {
		return sh.flowDetour[lo+i]
	}
	return math.Inf(1)
}

// FlowVisit is one (flow, detour) incidence at a node, exposed for external
// solvers that need per-node flow scans (e.g. the Manhattan two-stage
// greedy over straight flows).
type FlowVisit struct {
	// Flow indexes into the problem's flow set.
	Flow int
	// Detour is the detour distance a driver of that flow incurs when
	// receiving the advertisement at the node.
	Detour float64
}

// VisitsAt returns the flows passing through node v with their detours,
// ordered by ascending flow index (shards are walked in flow order).
func (e *Engine) VisitsAt(v graph.NodeID) []FlowVisit {
	var out []FlowVisit
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		if out == nil && hi > lo {
			out = make([]FlowVisit, 0, hi-lo)
		}
		for i := lo; i < hi; i++ {
			out = append(out, FlowVisit{Flow: int(sh.visitFlow[i]), Detour: sh.visitDetour[i]})
		}
	}
	if out == nil {
		out = []FlowVisit{}
	}
	return out
}

// FlowDetour returns the effective detour of flow f under placement nodes:
// the minimum detour over all placed RAPs on the flow's path (+Inf when the
// flow passes no RAP). This realizes the paper's rule that redundant
// advertisements add nothing: only the best RAP matters.
func (e *Engine) FlowDetour(f int, nodes []graph.NodeID) float64 {
	best := math.Inf(1)
	for _, v := range nodes {
		if d := e.Detour(f, v); d < best {
			best = d
		}
	}
	return best
}

// Evaluate computes the objective w(S): the expected number of drivers per
// day who detour to the shop under placement nodes. Under ComposeBest
// objectives (the paper's rule, with or without a model) repeated nodes
// are idempotent; under a ComposeIndependent model each occurrence counts
// as another independent chance, so nodes should be distinct — every
// solver in this module places distinct nodes.
func (e *Engine) Evaluate(nodes []graph.NodeID) float64 {
	cur := e.newDetourState()
	for _, v := range nodes {
		cur.place(e, v)
	}
	return cur.total()
}

// EvaluatePrefixes computes the objective of every prefix of nodes in one
// incremental pass: out[i] equals Evaluate(nodes[:i]) bit-for-bit for
// 0 <= i <= len(nodes). The experiment harness uses it to score a nested
// greedy placement at every budget k without re-placing each prefix from
// scratch (one pass instead of sum-over-k re-evaluations).
func (e *Engine) EvaluatePrefixes(nodes []graph.NodeID) []float64 {
	out := make([]float64, len(nodes)+1)
	st := e.newDetourState()
	out[0] = st.total()
	for i, v := range nodes {
		st.place(e, v)
		out[i+1] = st.total()
	}
	return out
}

// StandaloneGain returns w({v}), the customers attracted by a single RAP at
// v. Used by the MaxCustomers baseline and by upper bounds in the
// exhaustive solver.
func (e *Engine) StandaloneGain(v graph.NodeID) float64 {
	var total float64
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		for _, g := range sh.gainsAt(v, lo, hi) {
			total += g
		}
	}
	return total
}

// detourState tracks, per flow, the placement progress of an incremental
// evaluation. Its two arrays are interpreted by the engine's composition
// branch (see objective.go):
//
//   - compBest (nil model): cur is the flow's minimum detour so far (+Inf
//     = uncovered) and gain the utility gain banked at that detour.
//     Storing the gain alongside the detour means the covered-flow delta
//     of a marginal-gain scan needs no utility recompute: it is the
//     difference of two precomputed gains.
//   - compBestWeighted: cur is still the minimum detour (it classifies
//     covered vs uncovered flows), but gain banks the maximum weighted
//     visit gain — with per-node weights the best offer is no longer the
//     nearest one.
//   - compIndependent: cur is the flow's survival probability Π(1-p_i)
//     (1 = untouched) and gain the accumulated expected value.
//
// total() is the objective under every branch: the sum of banked gains in
// flow order.
type detourState struct {
	cur  []float64
	gain []float64
}

func (e *Engine) newDetourState() *detourState {
	n := e.p.Flows.Len()
	buf := make([]float64, 2*n)
	s := &detourState{cur: buf[:n], gain: buf[n:]}
	init := math.Inf(1)
	if e.comp == compIndependent {
		init = 1 // survival probability of an untouched flow
	}
	for i := range s.cur {
		s.cur[i] = init
	}
	return s
}

// place updates the state with a RAP at v.
func (s *detourState) place(e *Engine, v graph.NodeID) {
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		gains := sh.gainsAt(v, lo, hi)
		flows := sh.visitFlow[lo:hi]
		switch e.comp {
		case compIndependent:
			rems := sh.visitRem[lo:hi]
			for i, f := range flows {
				s.gain[f] += s.cur[f] * gains[i]
				s.cur[f] *= rems[i]
			}
		case compBestWeighted:
			dets := sh.visitDetour[lo:hi]
			for i, f := range flows {
				if d := dets[i]; d < s.cur[f] {
					s.cur[f] = d
				}
				if g := gains[i]; g > s.gain[f] {
					s.gain[f] = g
				}
			}
		default:
			dets := sh.visitDetour[lo:hi]
			for i, f := range flows {
				if d := dets[i]; d < s.cur[f] {
					s.cur[f] = d
					s.gain[f] = gains[i]
				}
			}
		}
	}
}

// total evaluates the objective for the current state: uncovered flows hold
// a banked gain of exactly 0, so the sum over all flows (in flow order, for
// bit-stable results) is the objective.
func (s *detourState) total() float64 {
	var sum float64
	for _, g := range s.gain {
		sum += g
	}
	return sum
}

// marginalGain returns the objective increase from adding a RAP at v to the
// current state, split into the uncovered-flow part (flows with no RAP yet)
// and the covered-flow part (flows whose detour improves). These are the
// two candidate objectives of Algorithm 2. The loop touches only the
// precomputed visit arena: no utility calls, no map lookups.
func (s *detourState) marginalGain(e *Engine, v graph.NodeID) (uncovered, covered float64) {
	cur, bank := s.cur, s.gain
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(v)
		gains := sh.gainsAt(v, lo, hi)
		// Narrow the arenas to this node's bucket so the loop indexes small
		// equal-length slices; the node's visits are the hottest data in
		// every greedy scan. Shard order is flow order, so the accumulation
		// order matches the old flat arena bit for bit.
		flows := sh.visitFlow[lo:hi]
		switch e.comp {
		case compIndependent:
			// The flow's marginal value is survival * q * Volume, which is
			// exactly survival * the visit gain. Untouched flows (no banked
			// value yet) feed Algorithm 2's uncovered candidate.
			for i, f := range flows {
				delta := cur[f] * gains[i]
				//lint:ignore floatcmp zero-probability visits contribute exactly 0 either way; skipping keeps them out of the class split
				if delta == 0 {
					continue
				}
				//lint:ignore floatcmp a flow is uncovered iff its banked value still holds its exact zero initial
				if bank[f] == 0 {
					uncovered += delta
				} else {
					covered += delta
				}
			}
		case compBestWeighted:
			for i, f := range flows {
				if math.IsInf(cur[f], 1) {
					uncovered += gains[i] // bank is still 0
				} else if g := gains[i]; g > bank[f] {
					covered += g - bank[f]
				}
			}
		default:
			dets := sh.visitDetour[lo:hi]
			for i, f := range flows {
				curD := cur[f]
				if dets[i] >= curD {
					continue
				}
				if math.IsInf(curD, 1) {
					uncovered += gains[i]
				} else {
					covered += gains[i] - bank[f]
				}
			}
		}
	}
	return uncovered, covered
}
