package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"roadside/internal/graph"
)

// DigestVersion prefixes every problem digest. Bump it on any change to
// the digest's input encoding so cached engines keyed by an old digest can
// never be served for a problem hashed under a new one.
const DigestVersion = "rapd2"

// ProblemDigest computes a stable content digest of everything the
// placement engine's preprocessed arenas depend on: the graph, the flows,
// the utility function (by name and threshold), the shop and extra-shop
// branches, and the candidate restriction. The budget K is deliberately
// excluded — it only parameterizes the greedy step loop, not the arenas —
// so one cached engine can answer placement queries at every budget (see
// Engine.WithBudget).
//
// The input is a binary canonical form streamed into the hash through one
// fixed-size buffer, so digest memory does not grow with the problem.
// Each section starts with a tag byte; counts are little-endian uint64,
// node IDs on edges and paths uint32, every float its IEEE-754 bits, and
// every string and list is length-framed, so adjacent fields can never
// alias. A problem with a NaN or infinite node coordinate has no digest
// (it has no interchange encoding either). The digest is a SHA-256, so
// distinct problems colliding is not a practical concern; two problems
// with equal digests may be treated as the same engine-construction input.
func ProblemDigest(p *Problem) (string, error) {
	if p == nil || p.Flows == nil {
		return "", ErrNilField
	}
	return DigestWithFlows(p, p.Flows)
}

// DigestWithFlows is ProblemDigest of the problem whose flows are flows
// instead of p.Flows, which it ignores: the digest of a problem whose flow
// set is not built yet, equal to the digest it has once built.
func DigestWithFlows(p *Problem, flows FlowList) (string, error) {
	if p == nil || p.Graph == nil || flows == nil || p.Utility == nil {
		return "", ErrNilField
	}
	w := digestWriter{h: sha256.New()}

	g := p.Graph
	w.tag('g')
	w.u64(uint64(g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		pt := g.Point(graph.NodeID(i))
		if !finite(pt.X) || !finite(pt.Y) {
			return "", fmt.Errorf("core: digest graph: node %d: non-finite coordinate (%g, %g)", i, pt.X, pt.Y)
		}
		w.u64(math.Float64bits(pt.X))
		w.u64(math.Float64bits(pt.Y))
	}
	w.u64(uint64(g.NumEdges()))
	for u := 0; u < g.NumNodes(); u++ {
		g.ForEachOut(graph.NodeID(u), func(v graph.NodeID, wt float64) bool {
			w.u32(uint32(u))
			w.u32(uint32(v))
			w.u64(math.Float64bits(wt))
			return true
		})
	}

	w.tag('f')
	w.u64(uint64(flows.Len()))
	for i := 0; i < flows.Len(); i++ {
		f := flows.At(i)
		// The wire, like encoding/json, carries each invalid UTF-8 byte
		// of an ID as U+FFFD, and so does string([]rune(id)); hashing
		// that form keeps a problem's digest equal to its wire copy's.
		id := f.ID
		if !utf8.ValidString(id) {
			id = string([]rune(id))
		}
		w.str(id)
		w.u64(uint64(len(f.Path)))
		for _, v := range f.Path {
			w.u32(uint32(v))
		}
		w.u64(math.Float64bits(f.Volume))
		w.u64(math.Float64bits(f.Alpha))
	}

	w.tag('u')
	w.str(p.Utility.Name())
	w.u64(math.Float64bits(p.Utility.Threshold()))
	w.tag('s')
	w.u64(uint64(p.Shop))
	w.ids(p.ExtraShops)
	w.tag('c')
	w.ids(p.Candidates)
	// The model section is written only when a model is set. A model
	// engine's arenas depend on the model's name and parameters (they
	// reweight the precomputed gains), so both are folded in.
	if p.Model != nil {
		w.tag('m')
		w.str(p.Model.Name())
		w.str(p.Model.Params())
	}
	return DigestVersion + "-" + hex.EncodeToString(w.sum()), nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// digestWriter buffers ProblemDigest's canonical form in front of the
// hash, so each value costs a store rather than a hash.Write call.
type digestWriter struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (w *digestWriter) flush() {
	//lint:ignore errdrop hash.Hash.Write is documented to never return an error
	_, _ = w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *digestWriter) tag(b byte) {
	if w.n == len(w.buf) {
		w.flush()
	}
	w.buf[w.n] = b
	w.n++
}

func (w *digestWriter) u32(v uint32) {
	if w.n+4 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint32(w.buf[w.n:], v)
	w.n += 4
}

func (w *digestWriter) u64(v uint64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

// str writes s framed by its length.
func (w *digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

// ids writes a node list framed by its length.
func (w *digestWriter) ids(vs []graph.NodeID) {
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

func (w *digestWriter) sum() []byte {
	w.flush()
	return w.h.Sum(nil)
}

// DeriveDigest returns the lineage digest identifying the seq-th update
// applied to the problem digested as base: "base@seq". Sequence 0 is the
// base itself. The query server keys its evolving engines by these, so one
// LRU slot tracks a drifting problem instead of accumulating stale
// siblings.
func DeriveDigest(base string, seq int) string {
	if seq <= 0 {
		return base
	}
	return base + "@" + strconv.Itoa(seq)
}

// SplitDigest splits a possibly-derived digest reference into its base
// digest and update sequence number. References without an "@seq" suffix
// report sequence 0. The sequence must be in the canonical decimal form
// DeriveDigest writes, so "base@+3" and "base@03" are errors rather than
// aliases of "base@3".
func SplitDigest(ref string) (base string, seq int, err error) {
	at := strings.IndexByte(ref, '@')
	if at < 0 {
		return ref, 0, nil
	}
	seq, err = strconv.Atoi(ref[at+1:])
	if err != nil || seq < 0 || ref[at+1:] != strconv.Itoa(seq) {
		return "", 0, fmt.Errorf("core: bad digest sequence in %q", ref)
	}
	return ref[:at], seq, nil
}

// WithBudget returns an engine solving for budget k instead of the budget
// the engine was constructed with. The copy shares every preprocessed
// arena with the receiver (engines are immutable; K only bounds the greedy
// step loops), so it costs two struct copies — this is what lets an
// engine cached under its K-free ProblemDigest answer queries at any
// budget.
func (e *Engine) WithBudget(k int) (*Engine, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d", ErrBadBudget, k)
	}
	if e.p.K == k {
		return e, nil
	}
	cp := *e
	pc := *e.p
	pc.K = k
	cp.p = &pc
	return &cp, nil
}

// ArenaBytes estimates the memory retained by the engine's CSR arenas and
// candidate list in bytes. It is the size the query server's engine cache
// budgets by; the estimate ignores the Problem the engine references
// (typically shared with the caller) and slice headers. An ApplyCopy
// child counts one gain per visit, like any engine, although outside the
// pages it cloned it reads its parent's: see DESIGN.md §3.24.
func (e *Engine) ArenaBytes() int64 {
	const (
		i32Size  = 4 // int32 offsets and flow indices
		f64Size  = 8 // float64 detours and gains
		nodeSize = 4 // graph.NodeID is int32
	)
	var total int64
	for si := range e.shards {
		sh := &e.shards[si]
		total += int64(len(sh.visitOff))*i32Size +
			int64(len(sh.visitFlow))*i32Size +
			int64(len(sh.visitDetour))*f64Size +
			int64(len(sh.visitGain))*f64Size +
			int64(len(sh.visitRem))*f64Size +
			int64(len(sh.flowOff))*i32Size +
			int64(len(sh.flowNode))*nodeSize +
			int64(len(sh.flowDetour))*f64Size
	}
	return total + int64(len(e.cands))*nodeSize
}
