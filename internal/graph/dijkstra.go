package graph

import (
	"fmt"
	"math"
)

// Tree holds the result of a single-source (or single-destination) Dijkstra
// run: distances and the shortest-path tree.
type Tree struct {
	root    NodeID
	reverse bool // true if distances are *to* root rather than *from* root
	dist    []float64
	parent  []NodeID
}

// ShortestFrom computes shortest-path distances from src to every node.
func (g *Graph) ShortestFrom(src NodeID) (*Tree, error) {
	if !g.ValidNode(src) {
		return nil, fmt.Errorf("%w: %d", ErrNodeRange, src)
	}
	t := &Tree{root: src, reverse: false}
	t.dist, t.parent = g.dijkstra(src, false)
	return t, nil
}

// ShortestTo computes shortest-path distances from every node to dst by
// running Dijkstra on the reverse graph. The resulting Tree's Parent
// pointers give the next hop toward dst.
func (g *Graph) ShortestTo(dst NodeID) (*Tree, error) {
	if !g.ValidNode(dst) {
		return nil, fmt.Errorf("%w: %d", ErrNodeRange, dst)
	}
	t := &Tree{root: dst, reverse: true}
	t.dist, t.parent = g.dijkstra(dst, true)
	return t, nil
}

// dijkstra runs the textbook algorithm with a lazy-deletion binary heap.
// When reverse is true it explores incoming edges, yielding distances to
// the root.
func (g *Graph) dijkstra(root NodeID, reverse bool) ([]float64, []NodeID) {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = Invalid
	}
	dist[root] = 0
	h := newDistHeap(64)
	h.push(root, 0)
	for h.len() > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		relax := func(v NodeID, w float64) bool {
			if nd := d + w; nd < dist[v] {
				dist[v] = nd
				parent[v] = u
				h.push(v, nd)
			}
			return true
		}
		if reverse {
			g.ForEachIn(u, relax)
		} else {
			g.ForEachOut(u, relax)
		}
	}
	return dist, parent
}

// dijkstraDist is dijkstra without the parent array: same relaxation order,
// bit-identical distances, 8 instead of 12 bytes of output per node. Used
// for DistOnly tree requests where callers never walk paths.
func (g *Graph) dijkstraDist(root NodeID, reverse bool) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	h := newDistHeap(64)
	h.push(root, 0)
	for h.len() > 0 {
		u, d := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		relax := func(v NodeID, w float64) bool {
			if nd := d + w; nd < dist[v] {
				dist[v] = nd
				h.push(v, nd)
			}
			return true
		}
		if reverse {
			g.ForEachIn(u, relax)
		} else {
			g.ForEachOut(u, relax)
		}
	}
	return dist
}

// Root returns the tree's source (or destination for a reverse tree).
func (t *Tree) Root() NodeID { return t.root }

// Dist returns the distance between v and the root: from root to v for a
// forward tree, from v to root for a reverse tree. Unreachable nodes report
// +Inf.
func (t *Tree) Dist(v NodeID) float64 { return t.dist[v] }

// Reachable reports whether v is connected to the root in the tree's
// direction.
func (t *Tree) Reachable(v NodeID) bool { return !math.IsInf(t.dist[v], 1) }

// Parent returns the predecessor of v in the shortest-path tree (the next
// hop toward the root for a reverse tree), or Invalid for the root, for
// unreachable nodes, and for every node of a DistOnly tree.
func (t *Tree) Parent(v NodeID) NodeID {
	if t.parent == nil {
		return Invalid
	}
	return t.parent[v]
}

// DistOnly reports whether the tree was built without parent pointers.
func (t *Tree) DistOnly() bool { return t.parent == nil }

// Path returns the shortest path linking v and the root: root..v for a
// forward tree, v..root for a reverse tree. It returns ErrUnreachable if no
// path exists and ErrDistOnly for trees built without parent pointers.
func (t *Tree) Path(v NodeID) ([]NodeID, error) {
	if t.parent == nil {
		return nil, fmt.Errorf("%w: tree rooted at %d", ErrDistOnly, t.root)
	}
	if !t.Reachable(v) {
		return nil, fmt.Errorf("%w: %d and %d", ErrUnreachable, t.root, v)
	}
	var rev []NodeID
	for cur := v; cur != Invalid; cur = t.parent[cur] {
		rev = append(rev, cur)
	}
	if !t.reverse {
		// rev is v..root; flip to root..v.
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
	}
	return rev, nil
}

// ShortestPath returns one shortest path from src to dst and its length.
func (g *Graph) ShortestPath(src, dst NodeID) ([]NodeID, float64, error) {
	t, err := g.ShortestFrom(src)
	if err != nil {
		return nil, 0, err
	}
	if !g.ValidNode(dst) {
		return nil, 0, fmt.Errorf("%w: %d", ErrNodeRange, dst)
	}
	p, err := t.Path(dst)
	if err != nil {
		return nil, 0, err
	}
	return p, t.Dist(dst), nil
}
