package graph

// distHeap is a binary min-heap of (node, dist) entries specialized for
// Dijkstra. It admits duplicate entries for the same node; stale entries are
// skipped by the caller via the settled check (lazy deletion), which is
// simpler and in practice faster than an indexed decrease-key heap for
// road-network densities.
//
// Entries are packed, distance beside node, so a comparison and the move
// that follows it touch one cache line instead of two parallel arrays. push
// and pop sift a hole: the entry being placed is carried in a register,
// each level moves one entry into the hole, and the carried entry is
// written once where the hole stops, instead of swapping at every level.
//
// The pop order is the textbook swap heap's, ties included, because every
// comparison is the one that heap made: push stops once the parent's
// distance is <= the carried one; pop takes the right child only when it is
// strictly smaller than the left, and moves it up only when it is strictly
// smaller than the carried entry. A swap heap keeps the carried entry at
// the hole's position at every level, so both heaps hold the same entry at
// every slot after every operation. Dijkstra's parent pointers, A*'s paths
// and the routes built from them therefore do not depend on which heap ran.
type distHeap struct {
	items []heapEntry
}

type heapEntry struct {
	dist float64
	node NodeID
}

func newDistHeap(capacity int) *distHeap {
	return &distHeap{items: make([]heapEntry, 0, capacity)}
}

func (h *distHeap) len() int { return len(h.items) }

func (h *distHeap) reset() { h.items = h.items[:0] }

func (h *distHeap) push(n NodeID, d float64) {
	x := heapEntry{dist: d, node: n}
	h.items = append(h.items, x)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if items[parent].dist <= x.dist {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
}

func (h *distHeap) pop() (NodeID, float64) {
	items := h.items
	top := items[0]
	last := len(items) - 1
	x := items[last]
	items = items[:last]
	h.items = items
	if last == 0 {
		return top.node, top.dist
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && items[r].dist < items[c].dist {
			c = r
		}
		if !(items[c].dist < x.dist) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = x
	return top.node, top.dist
}
