package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"roadside/internal/flow"
	"roadside/internal/graph"
)

// Delta layer: evolve an existing engine under a stream of flow updates
// instead of rebuilding it from scratch.
//
// The engine's arenas factor cleanly by flow: a visit's gain is
// Utility.Prob(detour, alpha) * Volume and its detour depends only on the
// graph, the shops, and the flow's own path — never on other flows. So a
// volume change is an O(visits-of-flow) gain rewrite against the stored
// detours, a removal is a splice of the owning shard's CSR rows, and an
// addition computes one detour column from the retained shop trees plus a
// single pruned many-to-many group. Nothing else moves.
//
// The contract pinned by the delta-identity invariant is strict: after any
// update sequence the derived engine must equal NewEngine(ApplyToProblem(p,
// ops)) at Float64bits granularity — fingerprint, placements, step gains,
// and prefix objectives. Bit-identity survives because every recomputed
// value is produced by the same pure function on the same bit patterns a
// fresh build would use: Prob(storedDetour, alpha) * newVolume for volume
// changes (no ratio scaling, which would drift), Dijkstra-exact
// many-to-many columns for added flows (pruning never changes distances —
// the many-to-many-identity invariant pins that), and a shard layout kept
// equal to shardBounds on the mutated visit counts (resharding from stored
// rows when the greedy packing diverges, without re-running any Dijkstra).

// ErrBadUpdate reports a structurally invalid flow update (bad op, index
// out of range, removing the last flow).
var ErrBadUpdate = errors.New("core: bad flow update")

// UpdateOp selects what a FlowUpdate does.
type UpdateOp int

const (
	// OpSetVolume sets flow Flow's daily volume to Volume.
	OpSetVolume UpdateOp = iota + 1
	// OpRemoveFlow deletes flow Flow; later flows shift down one index.
	OpRemoveFlow
	// OpAddFlow appends Add as the new highest-index flow.
	OpAddFlow
)

// String names the op for error messages and logs.
func (op UpdateOp) String() string {
	switch op {
	case OpSetVolume:
		return "set_volume"
	case OpRemoveFlow:
		return "remove"
	case OpAddFlow:
		return "add"
	}
	return fmt.Sprintf("UpdateOp(%d)", int(op))
}

// FlowUpdate is one element of a delta. Updates in a batch apply
// sequentially, so Flow indexes the flow set as it stands when the op
// runs (earlier removals shift later indices).
type FlowUpdate struct {
	Op UpdateOp
	// Flow is the target index for OpSetVolume and OpRemoveFlow.
	Flow int
	// Volume is the new daily volume for OpSetVolume.
	Volume float64
	// Add is the flow appended by OpAddFlow. Origin and Dest are derived
	// from the path; the path must be a real walk of the problem's graph.
	Add flow.Flow
}

// applyToFlows applies one update to a working flow slice, validating it
// exactly as construction would.
func applyToFlows(g *graph.Graph, flows []flow.Flow, op FlowUpdate) ([]flow.Flow, error) {
	switch op.Op {
	case OpSetVolume:
		nf, err := volumeFlow(flow.List(flows), op)
		if err != nil {
			return nil, err
		}
		flows[op.Flow] = nf
		return flows, nil
	case OpRemoveFlow:
		if op.Flow < 0 || op.Flow >= len(flows) {
			return nil, fmt.Errorf("%w: remove flow %d, have %d flows", ErrBadUpdate, op.Flow, len(flows))
		}
		if len(flows) == 1 {
			return nil, fmt.Errorf("%w: removing the last flow leaves an empty set", ErrBadUpdate)
		}
		return append(flows[:op.Flow], flows[op.Flow+1:]...), nil
	case OpAddFlow:
		nf, err := flow.New(op.Add.ID, op.Add.Path, op.Add.Volume, op.Add.Alpha)
		if err != nil {
			return nil, err
		}
		if err := nf.Validate(g); err != nil {
			return nil, err
		}
		return append(flows, nf), nil
	}
	return nil, fmt.Errorf("%w: unknown op %v", ErrBadUpdate, op.Op)
}

// volumeFlow validates a set_volume op against flows and returns the flow
// it writes. A set_volume changes neither the flow count nor any path, ID
// or alpha, so validating each op of a pure set_volume batch against the
// unmodified list gives the verdict sequential application would.
func volumeFlow(flows FlowList, op FlowUpdate) (flow.Flow, error) {
	if op.Flow < 0 || op.Flow >= flows.Len() {
		return flow.Flow{}, fmt.Errorf("%w: set_volume flow %d, have %d flows", ErrBadUpdate, op.Flow, flows.Len())
	}
	f := flows.At(op.Flow)
	return flow.New(f.ID, f.Path, op.Volume, f.Alpha)
}

// ApplyToProblem returns a copy of p with ops applied to its flow set. It
// is the delta layer's oracle: NewEngine(ApplyToProblem(p, ops)) must equal
// the engine ApplyCopy(ops) derives bit for bit, and the delta-identity
// invariant holds the two together.
func ApplyToProblem(p *Problem, ops []FlowUpdate) (*Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	flows := p.Flows.Flows()
	var err error
	for i, op := range ops {
		if flows, err = applyToFlows(p.Graph, flows, op); err != nil {
			return nil, fmt.Errorf("core: update %d: %w", i, err)
		}
	}
	set, err := flow.NewSet(flows)
	if err != nil {
		return nil, err
	}
	cp := *p
	cp.Flows = set
	return &cp, nil
}

// ApplyCopy is the one way an engine takes a flow update. It returns a
// derived engine equal to a fresh build of ApplyToProblem(e.Problem(), ops)
// and the sorted distinct nodes whose visit buckets changed (the inputs
// Warm.Refresh needs), leaving the receiver intact for concurrent readers.
// The whole batch is validated before anything is built, so on error
// nothing is derived. Untouched data is shared between the two engines
// (copy on write: whole arrays, except the gain arena, which is copied by
// page), so a volume update clones only its shard's page table and the
// gain pages holding its flows' visits, or the whole gain arena when those
// pages hold most of it. The derived engine's standalone gains are
// re-derived from the receiver's on first use, re-scoring only the
// touched candidates (see warm.go).
func (e *Engine) ApplyCopy(ops []FlowUpdate) (*Engine, []graph.NodeID, error) {
	cp := *e
	cp.shards = append([]arenaShard(nil), e.shards...)
	touched, err := cp.applyOps(ops)
	if err != nil {
		return nil, nil, err
	}
	cp.sa = e.sa.inherit(touched)
	return &cp, touched, nil
}

// deltaMut carries the per-batch mutation state of a derived engine: the
// evolving flow slice and visit counts, the touched nodes, and which of
// each shard's data the batch has cloned or reallocated already.
type deltaMut struct {
	e      *Engine
	flows  []flow.Flow
	counts []int // per-flow distinct-node visit counts
	// touched is a bitset over node IDs marking the nodes of every
	// rewritten flow row: n/8 bytes, an eighth of a []bool's.
	touched []uint64

	owned []shardOwned // by shard index
}

// shardOwned records which of a shard's arrays the batch may write: ones
// it reallocated or cloned, never ones the receiver shares.
type shardOwned struct {
	flow  bool     // visitFlow was cloned or reallocated
	gains bool     // visitGain was cloned or reallocated, and the shard has no page table
	pages []uint64 // else the bitset of gain pages the batch cloned; nil until the page table is copied
}

// applyOps validates the whole batch, then rewrites e's arenas op by op and
// finally swaps in the updated problem. e is the fresh copy ApplyCopy made,
// so every array it still shares with the receiver is cloned before its
// first write.
func (e *Engine) applyOps(ops []FlowUpdate) ([]graph.NodeID, error) {
	if len(e.shards) == 0 {
		return nil, fmt.Errorf("core: delta update on zero-value engine")
	}
	if e.p.Model != nil {
		// Model weights may couple flows (capacity demand sums every
		// flow's volume through a node), so the per-flow gain rescale
		// below would silently leave other flows' weights stale.
		return nil, fmt.Errorf("%w: engine built with model %q", ErrModelUpdate, e.p.Model.Name())
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty update batch", ErrBadUpdate)
	}

	// A batch of pure volume ops leaves every path untouched, so the new
	// flow set can share the old one's node-incidence index instead of
	// rebuilding it — the dominant cost of a volume drift.
	volumeOnly := true
	for _, op := range ops {
		if op.Op != OpSetVolume {
			volumeOnly = false
			break
		}
	}
	if err := e.validateOps(ops, volumeOnly); err != nil {
		return nil, err
	}

	// The mutation's flow list is the one copy the new set takes over.
	m := &deltaMut{
		e:       e,
		flows:   e.p.Flows.Flows(),
		touched: make([]uint64, (e.p.Graph.NumNodes()+63)/64),
		owned:   make([]shardOwned, len(e.shards)),
	}
	if volumeOnly {
		m.flattenCrowded(ops)
	} else {
		m.counts = e.flowCounts()
	}
	for i, op := range ops {
		if err := m.applyOne(op); err != nil {
			// Unreachable after the validation pass short of an engine bug;
			// surface it rather than panic.
			return nil, fmt.Errorf("core: update %d: %w", i, err)
		}
	}

	var (
		set *flow.Set
		err error
	)
	if volumeOnly {
		set, err = flow.NewSetSharedIndex(e.p.Flows, m.flows)
	} else {
		set, err = flow.NewSet(m.flows)
	}
	if err != nil {
		return nil, err
	}
	pc := *e.p
	pc.Flows = set
	e.p = &pc

	return m.touchedNodes(), nil
}

// validateOps checks the whole batch before anything mutates, so arena
// mutation cannot fail halfway. A pure set_volume batch is checked op by
// op against the current flows (see volumeFlow), with no copy. Any other
// batch is simulated on copies of the flows and their visit counts; the
// counts are tracked because OpAddFlow must respect the shard budget (a
// flow too large for any shard is the one add that construction itself
// would reject).
func (e *Engine) validateOps(ops []FlowUpdate, volumeOnly bool) error {
	if volumeOnly {
		for i, op := range ops {
			if _, err := volumeFlow(e.p.Flows, op); err != nil {
				return fmt.Errorf("core: update %d: %w", i, err)
			}
		}
		return nil
	}
	g := e.p.Graph
	simFlows := e.p.Flows.Flows()
	simCounts := e.flowCounts()
	var err error
	for i, op := range ops {
		if simFlows, err = applyToFlows(g, simFlows, op); err != nil {
			return fmt.Errorf("core: update %d: %w", i, err)
		}
		switch op.Op {
		case OpSetVolume:
		case OpRemoveFlow:
			simCounts = append(simCounts[:op.Flow], simCounts[op.Flow+1:]...)
		case OpAddFlow:
			nodes := sortedDistinct(append([]graph.NodeID(nil), op.Add.Path...))
			if len(nodes) > e.maxShardVisits {
				return fmt.Errorf("core: update %d: %w: flow needs %d visit slots, shard budget %d",
					i, ErrArenaOverflow, len(nodes), e.maxShardVisits)
			}
			simCounts = append(simCounts, len(nodes))
		}
	}
	return nil
}

// flowCounts reads the per-flow visit counts back out of the shard offsets.
func (e *Engine) flowCounts() []int {
	var counts []int
	for si := range e.shards {
		sh := &e.shards[si]
		for k := 0; k+1 < len(sh.flowOff); k++ {
			counts = append(counts, int(sh.flowOff[k+1]-sh.flowOff[k]))
		}
	}
	return counts
}

// curBounds reads the current shard partition as shardBounds-style ranges.
func (e *Engine) curBounds() [][2]int {
	b := make([][2]int, len(e.shards))
	for i := range e.shards {
		b[i] = [2]int{int(e.shards[i].flowLo), int(e.shards[i].flowHi)}
	}
	return b
}

// writableGainPage returns gain page p of shard si. A page still shared
// with the receiver is cloned into the shard's page table first, and on
// the shard's first such write the table itself is copied (or made);
// every other page stays shared.
func (m *deltaMut) writableGainPage(si, p int) []float64 {
	sh := &m.e.shards[si]
	if o := &m.owned[si]; !o.gains {
		if o.pages == nil {
			table := make([][]float64, sh.numGainPages())
			copy(table, sh.gainPages)
			sh.gainPages = table
			o.pages = make([]uint64, (len(table)+63)/64)
		}
		if bit := uint64(1) << (p % 64); o.pages[p/64]&bit == 0 {
			sh.gainPages[p] = slices.Clone(sh.gainPage(p))
			o.pages[p/64] |= bit
		}
	}
	return sh.gainPage(p)
}

// writableVisitFlow returns shard si's visitFlow array, cloning it first
// while it is still shared with the receiver.
func (m *deltaMut) writableVisitFlow(si int) []int32 {
	sh := &m.e.shards[si]
	if o := &m.owned[si]; !o.flow {
		sh.visitFlow = slices.Clone(sh.visitFlow)
		o.flow = true
	}
	return sh.visitFlow
}

// markFresh records that shard si's arrays were wholly reallocated by this
// batch, so its later ops write them directly.
func (m *deltaMut) markFresh(si int) { m.owned[si] = shardOwned{flow: true, gains: true} }

// flattenCrowded runs before every volume-only batch. Clones pile up
// along a lineage, each shadowing gains that the shared visitGain still
// holds, so on every shard where the gains in its table's clones and on
// the pages the batch will clone would reach half the shard's gains, it
// flattens the shard: one visitGain of its own and no table, which the
// batch then writes directly. What an engine holds beyond its ArenaBytes
// charge thus stays below half a gain arena plus the table, and a batch
// that writes most of a small shard copies it in one piece.
func (m *deltaMut) flattenCrowded(ops []FlowUpdate) {
	e := m.e
	seen := make([][]uint64, len(e.shards))
	need := make([]int, len(e.shards))
	for _, op := range ops {
		si := e.shardIndexForFlow(op.Flow)
		sh := &e.shards[si]
		if seen[si] == nil {
			seen[si] = make([]uint64, (sh.numGainPages()+63)/64)
			for _, pg := range sh.gainPages {
				need[si] += len(pg)
			}
		}
		lo, hi := sh.flowRange(op.Flow)
		for _, v := range sh.flowNode[lo:hi] {
			p := int(v) >> gainPageShift
			if bit := uint64(1) << (p % 64); seen[si][p/64]&bit == 0 {
				seen[si][p/64] |= bit
				if sh.gainPages == nil || sh.gainPages[p] == nil {
					need[si] += len(sh.gainPage(p))
				}
			}
		}
	}
	for si := range e.shards {
		if sh := &e.shards[si]; seen[si] != nil && 2*need[si] >= len(sh.visitFlow) {
			sh.flattenGains()
			m.owned[si].gains = true
		}
	}
}

// touch records flow rows' nodes as changed.
func (m *deltaMut) touch(nodes []graph.NodeID) {
	for _, v := range nodes {
		m.touched[v/64] |= 1 << (v % 64)
	}
}

// touchedNodes lists the touched nodes in ascending order, read straight
// off the bitset: no sort, and a repeat costs one bit write.
func (m *deltaMut) touchedNodes() []graph.NodeID {
	n := 0
	for _, w := range m.touched {
		n += bits.OnesCount64(w)
	}
	out := make([]graph.NodeID, 0, n)
	for i, w := range m.touched {
		for w != 0 {
			out = append(out, graph.NodeID(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}

// applyOne routes one validated update to its arena mutation.
func (m *deltaMut) applyOne(op FlowUpdate) error {
	switch op.Op {
	case OpSetVolume:
		return m.setVolume(op.Flow, op.Volume)
	case OpRemoveFlow:
		return m.removeFlow(op.Flow)
	case OpAddFlow:
		return m.addFlow(op.Add)
	}
	return fmt.Errorf("%w: unknown op %v", ErrBadUpdate, op.Op)
}

// setVolume rewrites flow f's visit gains from its stored detours. The
// recompute calls the same Prob(detour, alpha) * volume a fresh build
// would, on the same detour bits, so the result is bit-identical — a
// multiplicative rescale by newVolume/oldVolume would not be.
func (m *deltaMut) setVolume(f int, volume float64) error {
	e := m.e
	nf, err := flow.New(m.flows[f].ID, m.flows[f].Path, volume, m.flows[f].Alpha)
	if err != nil {
		return err
	}
	m.flows[f] = nf
	si := e.shardIndexForFlow(f)
	sh := &e.shards[si]
	u := e.p.Utility
	lo, hi := sh.flowRange(f)
	// The row's nodes ascend, so runs of them share a page: look the page
	// up once per run.
	p, page, base := -1, []float64(nil), int32(0)
	for idx := lo; idx < hi; idx++ {
		v := sh.flowNode[idx]
		gain := u.Prob(sh.flowDetour[idx], nf.Alpha) * nf.Volume
		b, be := sh.visitRange(v)
		pos, _ := slices.BinarySearch(sh.visitFlow[b:be], int32(f))
		if q := int(v) >> gainPageShift; q != p {
			p, page, base = q, m.writableGainPage(si, q), sh.visitOff[q<<gainPageShift]
		}
		page[int(b-base)+pos] = gain
	}
	m.touch(sh.flowNode[lo:hi])
	return nil
}

// removeFlow splices flow f out of its owning shard and renumbers the
// flows above it. When the greedy shard packing of the shrunken counts
// diverges from the incremental partition (a later flow may now fit an
// earlier shard), the arenas are resharded from their stored rows instead
// — still no Dijkstra runs.
func (m *deltaMut) removeFlow(f int) error {
	e := m.e
	si := e.shardIndexForFlow(f)
	lo, hi := e.shards[si].flowRange(f)
	m.touch(e.shards[si].flowNode[lo:hi])

	newCounts := append(append([]int(nil), m.counts[:f]...), m.counts[f+1:]...)
	newFlows := append(append([]flow.Flow(nil), m.flows[:f]...), m.flows[f+1:]...)
	fresh, err := shardBounds(newCounts, e.maxShardVisits)
	if err != nil {
		return err // counts only shrank; unreachable
	}

	// Incremental partition: the owner loses one flow, everything above
	// shifts down, empty shards drop.
	var inc [][2]int
	for _, b := range e.curBounds() {
		blo, bhi := b[0], b[1]
		if f < blo {
			blo--
		}
		if f < bhi {
			bhi--
		}
		if blo < bhi {
			inc = append(inc, [2]int{blo, bhi})
		}
	}
	if !slices.Equal(fresh, inc) {
		if err := m.reshard(newFlows, fresh, func(i int) ([]graph.NodeID, []float64) {
			old := i
			if i >= f {
				old = i + 1
			}
			return e.flowRows(old)
		}); err != nil {
			return err
		}
		m.flows, m.counts = newFlows, newCounts
		return nil
	}

	// Fast path: splice the owner shard, renumber later shards.
	sh := &e.shards[si]
	cnt := hi - lo
	lf := f - int(sh.flowLo)

	fOff := make([]int32, len(sh.flowOff)-1)
	copy(fOff, sh.flowOff[:lf+1])
	for k := lf + 1; k < len(fOff); k++ {
		fOff[k] = sh.flowOff[k+1] - int32(cnt)
	}
	fNode := make([]graph.NodeID, len(sh.flowNode)-cnt)
	copy(fNode, sh.flowNode[:lo])
	copy(fNode[lo:], sh.flowNode[hi:])
	fDet := make([]float64, len(sh.flowDetour)-cnt)
	copy(fDet, sh.flowDetour[:lo])
	copy(fDet[lo:], sh.flowDetour[hi:])

	n := e.p.Graph.NumNodes()
	total := len(sh.visitFlow) - cnt
	vOff := make([]int32, n+1)
	vFlow := make([]int32, total)
	vDet := make([]float64, total)
	vGain := make([]float64, total)
	w := 0
	for v := 0; v < n; v++ {
		vOff[v] = int32(w)
		lo, hi := sh.visitRange(graph.NodeID(v))
		gains := sh.gainsAt(graph.NodeID(v), lo, hi)
		for i := lo; i < hi; i++ {
			fi := sh.visitFlow[i]
			if int(fi) == f {
				continue
			}
			if int(fi) > f {
				fi--
			}
			vFlow[w] = fi
			vDet[w] = sh.visitDetour[i]
			vGain[w] = gains[i-lo]
			w++
		}
	}
	vOff[n] = int32(w)
	sh.flowOff, sh.flowNode, sh.flowDetour = fOff, fNode, fDet
	sh.visitOff, sh.visitFlow, sh.visitDetour, sh.visitGain = vOff, vFlow, vDet, vGain
	sh.gainPages = nil
	sh.flowHi--
	m.markFresh(si)

	drop := -1
	for sj := si + 1; sj < len(e.shards); sj++ {
		sh2 := &e.shards[sj]
		sh2.flowLo--
		sh2.flowHi--
		vf := m.writableVisitFlow(sj)
		for i := range vf {
			vf[i]-- // every flow in a later shard has index > f
		}
	}
	if sh.flowLo == sh.flowHi {
		drop = si
	}
	if drop >= 0 {
		e.shards = append(e.shards[:drop], e.shards[drop+1:]...)
		m.owned = append(m.owned[:drop], m.owned[drop+1:]...)
	}
	m.flows, m.counts = newFlows, newCounts
	return nil
}

// addFlow appends f as the highest flow index. The greedy shard packing of
// an appended count always extends the last shard when it fits and opens a
// fresh shard otherwise (the prefix packing cannot change), so adds never
// reshard.
func (m *deltaMut) addFlow(f flow.Flow) error {
	e := m.e
	nf, err := flow.New(f.ID, f.Path, f.Volume, f.Alpha)
	if err != nil {
		return err
	}
	if err := nf.Validate(e.p.Graph); err != nil {
		return err
	}
	nodes, dets, err := e.newFlowRows(nf)
	if err != nil {
		return err
	}
	gains := make([]float64, len(nodes))
	u := e.p.Utility
	for j, d := range dets {
		gains[j] = u.Prob(d, nf.Alpha) * nf.Volume
	}
	m.touch(nodes)

	idx := len(m.flows) // the new global flow index
	cnt := len(nodes)
	si := len(e.shards) - 1
	last := &e.shards[si]
	n := e.p.Graph.NumNodes()

	if len(last.visitFlow)+cnt > e.maxShardVisits {
		// Fresh shard holding just the new flow.
		sh := arenaShard{
			flowLo: int32(idx), flowHi: int32(idx + 1),
			flowOff:     []int32{0, int32(cnt)},
			flowNode:    nodes,
			flowDetour:  dets,
			visitOff:    make([]int32, n+1),
			visitFlow:   make([]int32, cnt),
			visitDetour: append([]float64(nil), dets...),
			visitGain:   gains,
		}
		// One flow, sorted nodes: the visit arena is the flow arena with a
		// one-entry bucket per path node.
		j := 0
		for v := 0; v < n; v++ {
			sh.visitOff[v] = int32(j)
			if j < cnt && nodes[j] == graph.NodeID(v) {
				sh.visitFlow[j] = int32(idx)
				j++
			}
		}
		sh.visitOff[n] = int32(cnt)
		e.shards = append(e.shards, sh)
		m.owned = append(m.owned, shardOwned{flow: true, gains: true})
	} else {
		// Extend the last shard: the new flow has the highest index, so its
		// entries land at the end of each node's bucket.
		total := len(last.visitFlow) + cnt
		vOff := make([]int32, n+1)
		vFlow := make([]int32, total)
		vDet := make([]float64, total)
		vGain := make([]float64, total)
		w, j := 0, 0
		for v := 0; v < n; v++ {
			vOff[v] = int32(w)
			lo, hi := last.visitRange(graph.NodeID(v))
			g := last.gainsAt(graph.NodeID(v), lo, hi)
			for i := lo; i < hi; i++ {
				vFlow[w] = last.visitFlow[i]
				vDet[w] = last.visitDetour[i]
				vGain[w] = g[i-lo]
				w++
			}
			if j < cnt && nodes[j] == graph.NodeID(v) {
				vFlow[w] = int32(idx)
				vDet[w] = dets[j]
				vGain[w] = gains[j]
				w++
				j++
			}
		}
		vOff[n] = int32(w)
		last.visitOff, last.visitFlow, last.visitDetour, last.visitGain = vOff, vFlow, vDet, vGain
		last.gainPages = nil
		last.flowOff = append(append([]int32(nil), last.flowOff...), last.flowOff[len(last.flowOff)-1]+int32(cnt))
		last.flowNode = append(append([]graph.NodeID(nil), last.flowNode...), nodes...)
		last.flowDetour = append(append([]float64(nil), last.flowDetour...), dets...)
		last.flowHi++
		m.markFresh(si)
	}
	m.flows = append(m.flows, nf)
	m.counts = append(m.counts, cnt)
	return nil
}

// flowRows returns global flow f's stored rows (sorted distinct path
// nodes and their detours) straight out of the owning shard.
func (e *Engine) flowRows(f int) ([]graph.NodeID, []float64) {
	sh := e.shardForFlow(f)
	lo, hi := sh.flowRange(f)
	return sh.flowNode[lo:hi], sh.flowDetour[lo:hi]
}

// newFlowRows computes the detour rows of a flow not in the engine: one
// pruned many-to-many group for d”' = dist(v, dest) over the path's
// distinct nodes, combined with the retained shop trees. Grouped
// many-to-many distances are Dijkstra-exact regardless of the source set,
// so the rows match what a full rebuild would compute bit for bit.
func (e *Engine) newFlowRows(f flow.Flow) ([]graph.NodeID, []float64, error) {
	nodes := sortedDistinct(append([]graph.NodeID(nil), f.Path...))
	cols, err := e.p.Graph.ManyToManyGrouped(
		[]graph.M2MGroup{{Target: f.Dest, Sources: nodes}}, 1)
	if err != nil {
		return nil, nil, err
	}
	dets := make([]float64, len(nodes))
	for j, v := range nodes {
		dets[j] = detourValue(e.toShops, e.fromShops, v, f.Dest, cols[0][j])
	}
	return nodes, dets, nil
}

// reshard rebuilds every shard from per-flow rows under a freshly computed
// partition, mirroring buildEngine's serial assembly (and therefore its
// bit layout) with gains recomputed as Prob(detour, alpha) * volume.
func (m *deltaMut) reshard(flows []flow.Flow, bounds [][2]int, rows func(i int) ([]graph.NodeID, []float64)) error {
	e := m.e
	n := e.p.Graph.NumNodes()
	u := e.p.Utility
	shards := make([]arenaShard, len(bounds))
	for si, b := range bounds {
		lo, hi := b[0], b[1]
		sh := &shards[si]
		sh.flowLo, sh.flowHi = int32(lo), int32(hi)
		lens := make([]int, hi-lo)
		for k := range lens {
			nodes, _ := rows(lo + k)
			lens[k] = len(nodes)
		}
		flowOff, total, err := flowOffsets(lens)
		if err != nil {
			return err
		}
		sh.flowOff = flowOff
		sh.flowNode = make([]graph.NodeID, total)
		sh.flowDetour = make([]float64, total)
		flowGain := make([]float64, total)
		for k := 0; k < hi-lo; k++ {
			nodes, dets := rows(lo + k)
			f := flows[lo+k]
			base := int(flowOff[k])
			for j := range nodes {
				sh.flowNode[base+j] = nodes[j]
				sh.flowDetour[base+j] = dets[j]
				flowGain[base+j] = u.Prob(dets[j], f.Alpha) * f.Volume
			}
		}
		sh.visitOff = make([]int32, n+1)
		for _, v := range sh.flowNode {
			sh.visitOff[v+1]++
		}
		for v := 0; v < n; v++ {
			sh.visitOff[v+1] += sh.visitOff[v]
		}
		sh.visitFlow = make([]int32, total)
		sh.visitDetour = make([]float64, total)
		sh.visitGain = make([]float64, total)
		cursor := make([]int32, n)
		for k := 0; k < hi-lo; k++ {
			for idx := int(flowOff[k]); idx < int(flowOff[k+1]); idx++ {
				v := sh.flowNode[idx]
				at := sh.visitOff[v] + cursor[v]
				cursor[v]++
				sh.visitFlow[at] = int32(lo + k)
				sh.visitDetour[at] = sh.flowDetour[idx]
				sh.visitGain[at] = flowGain[idx]
			}
		}
	}
	e.shards = shards
	m.owned = make([]shardOwned, len(shards))
	for i := range m.owned {
		m.markFresh(i)
	}
	return nil
}
