package core

import (
	"math"

	"roadside/internal/graph"
	"roadside/internal/par"
)

// minParallelScan is the candidate-count threshold below which the scan
// runs inline: on tiny instances the fan-out overhead exceeds the work.
// Serial and parallel scans are bit-identical either way, so the threshold
// is purely a performance knob.
const minParallelScan = 192

// placedSet is flat membership over the candidate ID range. The greedy
// scans test it once per candidate per step, where a map lookup was ~30% of
// solver time; a dense bool slice is one subtraction and one load.
type placedSet struct {
	lo   graph.NodeID
	bits []bool
}

func (e *Engine) newPlacedSet() placedSet {
	return placedSet{lo: e.candLo, bits: make([]bool, e.candSpan)}
}

func (s placedSet) has(v graph.NodeID) bool { return s.bits[v-s.lo] }
func (s placedSet) add(v graph.NodeID)      { s.bits[v-s.lo] = true }

// scanned is one evaluated candidate: the node plus both marginal-gain
// components at evaluation time. Carrying the full pair lets the greedy
// record the winner's step gain without re-evaluating it.
type scanned struct {
	node graph.NodeID
	u, c float64
}

// betterKey is the deterministic candidate order used by every greedy scan:
// higher gain wins, and equal gains go to the lower node ID. The exact
// float comparison is intentional — the tie-break must be a strict total
// order for parallel scans to merge to the same winner as a serial scan.
func betterKey(g float64, v graph.NodeID, bestG float64, bestV graph.NodeID) bool {
	if bestV == graph.Invalid {
		return true
	}
	//lint:ignore floatcmp exact tie detection keeps parallel merges bit-identical to serial scans
	if g != bestG {
		return g > bestG
	}
	return v < bestV
}

// scanBest accumulates the running argmax of a candidate scan along the
// three objectives the greedies need: the uncovered component, the covered
// component, and their sum.
type scanBest struct {
	byU, byC, bySum scanned
}

func newScanBest() scanBest {
	empty := scanned{node: graph.Invalid, u: math.Inf(-1), c: math.Inf(-1)}
	return scanBest{byU: empty, byC: empty, bySum: empty}
}

func (b *scanBest) consider(s scanned) {
	if betterKey(s.u, s.node, b.byU.u, b.byU.node) {
		b.byU = s
	}
	if betterKey(s.c, s.node, b.byC.c, b.byC.node) {
		b.byC = s
	}
	if betterKey(s.u+s.c, s.node, b.bySum.u+b.bySum.c, b.bySum.node) {
		b.bySum = s
	}
}

// merge folds in another partition's argmaxes. Each is a real candidate
// and betterKey is a strict total order, so considering all three for
// every key yields exactly the argmaxes of the union.
func (b *scanBest) merge(o scanBest) {
	b.consider(o.byU)
	b.consider(o.byC)
	b.consider(o.bySum)
}

// scanStats reports how much work one candidate scan performed; the
// greedy solvers forward it to the step observer so candidate-evaluation
// counts are measured rather than estimated.
type scanStats struct {
	evaluated int // unplaced candidates evaluated
	chunks    int // contiguous chunks the scan fanned across (1 = inline)
}

// scanCandidates evaluates st.marginalGain(v) = (uncovered, covered) for
// every unplaced candidate and returns the argmaxes plus scan statistics.
// With workers > 1 and enough candidates, contiguous candidate chunks are
// scanned concurrently; the merge order is irrelevant because betterKey is
// a strict total order over (gain, node), so the result is bit-identical
// to the serial scan. marginalGain must be a pure read of the step state —
// scans never overlap with state mutation.
func (e *Engine) scanCandidates(workers int, placed placedSet, st stepState) (scanBest, scanStats) {
	cands := e.cands
	if workers <= 1 || len(cands) < minParallelScan {
		best, evaluated := e.scanRange(cands, placed, st)
		return best, scanStats{evaluated: evaluated, chunks: 1}
	}
	chunks := par.Chunks(len(cands), workers)
	partial := make([]scanBest, len(chunks))
	counts := make([]int, len(chunks))
	par.Do(len(chunks), workers, func(ci int) {
		partial[ci], counts[ci] = e.scanRange(cands[chunks[ci][0]:chunks[ci][1]], placed, st)
	})
	best := newScanBest()
	stats := scanStats{chunks: len(chunks)}
	for i, p := range partial {
		best.merge(p)
		stats.evaluated += counts[i]
	}
	return best, stats
}

// scanRange is one serial scan over cands: the running argmaxes and the
// number of unplaced candidates evaluated.
func (e *Engine) scanRange(cands []graph.NodeID, placed placedSet, st stepState) (scanBest, int) {
	best := newScanBest()
	evaluated := 0
	for _, v := range cands {
		if placed.has(v) {
			continue
		}
		u, c := st.marginalGain(e, v)
		best.consider(scanned{node: v, u: u, c: c})
		evaluated++
	}
	return best, evaluated
}
