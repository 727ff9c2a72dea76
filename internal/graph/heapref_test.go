package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refDistHeap is the two-array swap heap distHeap replaced, kept as the
// reference its pop sequence is compared against: same comparisons, but a
// swap of both arrays at every level of every sift.
type refDistHeap struct {
	node []NodeID
	dist []float64
}

func (h *refDistHeap) len() int { return len(h.node) }

func (h *refDistHeap) push(n NodeID, d float64) {
	h.node = append(h.node, n)
	h.dist = append(h.dist, d)
	i := len(h.node) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.dist[parent] <= h.dist[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *refDistHeap) pop() (NodeID, float64) {
	n, d := h.node[0], h.dist[0]
	last := len(h.node) - 1
	h.node[0], h.dist[0] = h.node[last], h.dist[last]
	h.node = h.node[:last]
	h.dist = h.dist[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.dist[l] < h.dist[smallest] {
			smallest = l
		}
		if r < last && h.dist[r] < h.dist[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.swap(i, smallest)
		i = smallest
	}
	return n, d
}

func (h *refDistHeap) swap(i, j int) {
	h.node[i], h.node[j] = h.node[j], h.node[i]
	h.dist[i], h.dist[j] = h.dist[j], h.dist[i]
}

// heapDists is the value set the differential draws distances from. Four
// values make ties the common case, and −0 ties 0 while keeping its own
// bits, so a tie broken the other way shows even when the nodes agree.
var heapDists = [...]float64{math.Copysign(0, -1), 0, 1, 2}

// checkHeapOps runs one op stream through distHeap and the reference and
// fails at the first pop whose (node, Float64bits(dist)) differs. Each op
// byte's low bit picks pop (when the heaps are non-empty) or push; a push
// takes its node from the next two bits, so IDs repeat like lazy-deletion
// duplicates, and its distance from the two after. The heaps are drained
// at the end.
func checkHeapOps(t *testing.T, ops []byte) {
	t.Helper()
	got, want := newDistHeap(0), &refDistHeap{}
	pops := 0
	popBoth := func() {
		gn, gd := got.pop()
		wn, wd := want.pop()
		if gn != wn || math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("pop %d: got (%d, %v bits %#x), reference (%d, %v bits %#x)",
				pops, gn, gd, math.Float64bits(gd), wn, wd, math.Float64bits(wd))
		}
		pops++
	}
	for _, op := range ops {
		if op&1 == 1 && want.len() > 0 {
			popBoth()
		} else {
			got.push(NodeID(op>>1&3), heapDists[op>>3&3])
			want.push(NodeID(op>>1&3), heapDists[op>>3&3])
		}
		if got.len() != want.len() {
			t.Fatalf("len %d, reference %d", got.len(), want.len())
		}
	}
	for want.len() > 0 {
		popBoth()
	}
	if got.len() != 0 {
		t.Fatalf("heap holds %d entries after the reference drained", got.len())
	}
}

// TestDistHeapMatchesReference compares the pop sequences of distHeap and
// the swap-heap reference over seeded op streams whose push share ranges
// from pop-heavy (the heap stays a few entries deep) to push-heavy (it
// grows to hundreds).
func TestDistHeapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1823))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 1+rng.Intn(600))
		pushShare := 0.3 + 0.6*rng.Float64()
		for i := range ops {
			op := byte(rng.Intn(256)) &^ 1
			if rng.Float64() >= pushShare {
				op |= 1
			}
			ops[i] = op
		}
		checkHeapOps(t, ops)
	}
}

// FuzzDistHeap is the same differential over fuzzer-chosen op streams.
func FuzzDistHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 6, 1, 1, 1, 1})
	f.Add([]byte{24, 16, 8, 0, 30, 22, 14, 6, 1, 9, 1, 17, 1, 1, 1, 1})
	f.Add([]byte{8, 8, 8, 8, 8, 1, 8, 1, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkHeapOps(t, ops)
	})
}
