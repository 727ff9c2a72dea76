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
	evaluated int // marginal-gain evaluations
	chunks    int // contiguous chunks the scan fanned across (1 = inline)
}

// scanBlock is how many consecutive candidate positions share one cached
// argmax in eagerScan: a re-scored candidate costs a rescan of its block,
// and every step folds one argmax per block.
const scanBlock = 256

// eagerScan is one eager solve's placed set, step state and incremental
// scan. The first scan evaluates every candidate; each later one
// re-evaluates only the candidates on a flow through the node placed
// since, because st.marginalGain(v) reads the step state only at flows
// through v and st.place(w) writes it only at flows through w — every
// other candidate's cached pair is what a fresh evaluation would return,
// bit for bit. Argmaxes are cached per block of scanBlock positions; a
// scan rescans the blocks its re-scored candidates (and the placed node)
// fall in and folds all blocks with scanBest.merge, which betterKey's
// strict total order makes equal to a full scan's argmax.
//
// The cache is keyed by position in e.cands, not by node: Problem.Candidates
// may repeat a node, so a parallel scan keyed by node would race. The
// engine's candidate index (see warm.go) lists every position of a node,
// and a re-scored node is evaluated once and written to all of them.
type eagerScan struct {
	e      *Engine
	st     stepState
	offer  bool // st is the paper's detourState: step 0 yields the standalone gains
	set    placedSet
	last   graph.NodeID // the node placed since the last scan; Invalid before the first
	placed int          // nodes placed so far

	u, c   []float64  // each position's pair as of its last evaluation
	blocks []scanBest // per-block argmaxes over the unplaced positions

	marked []int32 // the placed count when node candLo+i was last marked dirty
	dirty  []graph.NodeID
	// touchedAt is the placed count when each block was last queued for a
	// rescan.
	touchedAt []int32
	touched   []int
}

func (e *Engine) newEagerScan(st stepState) *eagerScan {
	n := len(e.cands)
	s := &eagerScan{
		e: e, st: st, set: e.newPlacedSet(), last: graph.Invalid,
		u: make([]float64, n), c: make([]float64, n),
		blocks:    make([]scanBest, (n+scanBlock-1)/scanBlock),
		marked:    make([]int32, e.candSpan),
		touchedAt: make([]int32, (n+scanBlock-1)/scanBlock),
	}
	_, s.offer = st.(*detourState)
	e.ci.build(e)
	return s
}

// place adds v to the placement and the step state.
func (s *eagerScan) place(v graph.NodeID) {
	s.set.add(v)
	s.st.place(s.e, v)
	s.last = v
	s.placed++
}

// scan returns the argmaxes over the unplaced candidates and the scan
// statistics: a full scan before the first placement, else a re-score of
// the candidates on the last placed node's flows.
func (s *eagerScan) scan(workers int) (scanBest, scanStats) {
	if s.last == graph.Invalid {
		return s.full(workers)
	}
	evaluated := s.rescore()
	best := newScanBest()
	for _, b := range s.blocks {
		best.merge(b)
	}
	return best, scanStats{evaluated: evaluated, chunks: 1}
}

// full evaluates every candidate into the cache; nothing is placed yet.
// With workers > 1 and enough candidates, contiguous runs of blocks are scanned
// concurrently; each writes only its own positions and blocks, and the
// merge order is irrelevant because betterKey is a strict total order, so
// the result is bit-identical to the serial scan. marginalGain must be a
// pure read of the step state — scans never overlap with state mutation.
func (s *eagerScan) full(workers int) (scanBest, scanStats) {
	n := len(s.e.cands)
	partial := make([]scanBest, max(1, min(len(s.blocks), workers)))
	chunks := fanBlocks(n, workers, func(ci, b0, b1 int) {
		partial[ci] = s.scanBlocks(b0, b1)
	})
	best := newScanBest()
	for _, p := range partial[:chunks] {
		best.merge(p)
	}
	if s.offer {
		s.e.offerStandalone(s.u, s.c)
	}
	return best, scanStats{evaluated: n, chunks: chunks}
}

// fanBlocks runs fn over the scanBlock blocks of n candidate positions in
// contiguous runs, one per worker, and returns the run count. Below
// minParallelScan positions, or with one worker, it makes a single inline
// call. fn gets the run index and its block range [b0, b1).
func fanBlocks(n, workers int, fn func(ci, b0, b1 int)) int {
	nb := (n + scanBlock - 1) / scanBlock
	if workers <= 1 || n < minParallelScan {
		fn(0, 0, nb)
		return 1
	}
	chunks := par.Chunks(nb, workers)
	par.Do(len(chunks), workers, func(ci int) {
		fn(ci, chunks[ci][0], chunks[ci][1])
	})
	return len(chunks)
}

// scanBlocks evaluates the candidates of blocks [b0, b1), caching their
// pairs and block argmaxes, and returns the range's argmaxes.
func (s *eagerScan) scanBlocks(b0, b1 int) scanBest {
	e := s.e
	best := newScanBest()
	for b := b0; b < b1; b++ {
		bb := newScanBest()
		lo, hi := s.blockRange(b)
		for p := lo; p < hi; p++ {
			v := e.cands[p]
			s.u[p], s.c[p] = s.st.marginalGain(e, v)
			bb.consider(scanned{node: v, u: s.u[p], c: s.c[p]})
		}
		s.blocks[b] = bb
		best.merge(bb)
	}
	return best
}

func (s *eagerScan) blockRange(b int) (int, int) {
	return b * scanBlock, min((b+1)*scanBlock, len(s.e.cands))
}

// rescore re-evaluates the candidates on a flow through s.last and
// rescans the blocks holding them. It returns the number of evaluations:
// the distinct unplaced candidates on those flows. s.last is itself
// marked — it won with a positive gain, so it lies on one of its flows —
// which takes its positions out of their blocks' argmaxes. A shard's visit arena holds
// only its own flows, so each flow through s.last is found in the shard
// whose bucket listed it.
func (s *eagerScan) rescore() int {
	e := s.e
	stamp := int32(s.placed)
	s.dirty, s.touched = s.dirty[:0], s.touched[:0]
	for si := range e.shards {
		sh := &e.shards[si]
		lo, hi := sh.visitRange(s.last)
		for _, f := range sh.visitFlow[lo:hi] {
			a, b := sh.flowRange(int(f))
			for _, v := range sh.flowNode[a:b] {
				s.mark(v, stamp)
			}
		}
	}
	evaluated := 0
	for _, v := range s.dirty {
		var u, c float64
		if !s.set.has(v) {
			u, c = s.st.marginalGain(e, v)
			evaluated++
		}
		for p := e.ci.firstPos(e, v); p >= 0; p = e.ci.nextPos(p) {
			s.u[p], s.c[p] = u, c
			if b := int(p) / scanBlock; s.touchedAt[b] != stamp {
				s.touchedAt[b] = stamp
				s.touched = append(s.touched, b)
			}
		}
	}
	for _, b := range s.touched {
		bb := newScanBest()
		lo, hi := s.blockRange(b)
		for p := lo; p < hi; p++ {
			if v := e.cands[p]; !s.set.has(v) {
				bb.consider(scanned{node: v, u: s.u[p], c: s.c[p]})
			}
		}
		s.blocks[b] = bb
	}
	return evaluated
}

// mark queues candidate v for re-scoring once per step; non-candidates
// are ignored.
func (s *eagerScan) mark(v graph.NodeID, stamp int32) {
	i := int(v - s.e.candLo)
	if s.e.ci.firstPos(s.e, v) < 0 || s.marked[i] == stamp {
		return
	}
	s.marked[i] = stamp
	s.dirty = append(s.dirty, v)
}
