package graph

import (
	"fmt"
	"math"
)

// distEpsilon is the tolerance used when comparing sums of shortest-path
// distances (the tight-edge and on-some-shortest-path tests below). Road
// lengths are O(1e5) feet, so 1e-6 relative error is far below any street
// length.
const distEpsilon = 1e-6

// SPDAG is the shortest-path DAG from a single source: the subgraph of
// edges (u,v) with dist(u) + w(u,v) == dist(v). Every source-to-node path
// in the DAG is a shortest path in the original graph. It supports counting
// shortest paths and extracting a shortest path constrained to pass through
// a given node, which the Manhattan scenario uses to materialize the route
// a driver picks to collect a free advertisement.
type SPDAG struct {
	g    *Graph
	src  NodeID
	dist []float64
}

// NewSPDAG builds the shortest-path DAG rooted at src.
func NewSPDAG(g *Graph, src NodeID) (*SPDAG, error) {
	t, err := g.ShortestFrom(src)
	if err != nil {
		return nil, err
	}
	return &SPDAG{g: g, src: src, dist: t.dist}, nil
}

// Source returns the DAG's root.
func (d *SPDAG) Source() NodeID { return d.src }

// Dist returns the shortest distance from the source to v.
func (d *SPDAG) Dist(v NodeID) float64 { return d.dist[v] }

// isDAGEdge reports whether u->v with weight w is tight.
func (d *SPDAG) isDAGEdge(u, v NodeID, w float64) bool {
	if math.IsInf(d.dist[u], 1) {
		return false
	}
	return math.Abs(d.dist[u]+w-d.dist[v]) <= distEpsilon*(1+d.dist[v])
}

// CountPaths returns the number of distinct shortest paths from the source
// to dst, saturating at math.MaxFloat64. Counts are exact for the modest
// path multiplicities of city grids (the Manhattan grid has binomial
// counts).
func (d *SPDAG) CountPaths(dst NodeID) (float64, error) {
	if !d.g.ValidNode(dst) {
		return 0, fmt.Errorf("%w: %d", ErrNodeRange, dst)
	}
	if math.IsInf(d.dist[dst], 1) {
		return 0, nil
	}
	order := d.topoOrder()
	count := make([]float64, d.g.NumNodes())
	count[d.src] = 1
	for _, u := range order {
		//lint:ignore floatcmp path counts are sums of exact small integers in float storage
		if count[u] == 0 {
			continue
		}
		d.g.ForEachOut(u, func(v NodeID, w float64) bool {
			if d.isDAGEdge(u, v, w) {
				count[v] += count[u]
				if math.IsInf(count[v], 1) {
					count[v] = math.MaxFloat64
				}
			}
			return true
		})
	}
	return count[dst], nil
}

// topoOrder returns reachable nodes in increasing distance order, which is
// a topological order of the DAG.
func (d *SPDAG) topoOrder() []NodeID {
	n := d.g.NumNodes()
	order := make([]NodeID, 0, n)
	for v := 0; v < n; v++ {
		if !math.IsInf(d.dist[v], 1) {
			order = append(order, NodeID(v))
		}
	}
	// Insertion-style sort by distance via a simple heap-less approach:
	// sort.Slice would allocate a closure anyway; use it for clarity.
	sortNodesByDist(order, d.dist)
	return order
}

// ViaPath returns a shortest path from the source to dst that passes
// through via, if one exists: dist(src,via) + dist(via,dst) must equal
// dist(src,dst). It returns ErrUnreachable otherwise.
//
// Correctness: any src->via shortest path concatenated with any via->dst
// shortest path has total length dist(src,via)+dist(via,dst); when that sum
// equals dist(src,dst) the concatenation is itself a shortest path.
func (d *SPDAG) ViaPath(via, dst NodeID) ([]NodeID, error) {
	if !d.g.ValidNode(via) || !d.g.ValidNode(dst) {
		return nil, fmt.Errorf("%w: via=%d dst=%d", ErrNodeRange, via, dst)
	}
	rev, err := d.g.ShortestTo(dst)
	if err != nil {
		return nil, err
	}
	total := d.dist[via] + rev.Dist(via)
	want := d.dist[dst]
	if math.IsInf(total, 1) || math.IsInf(want, 1) ||
		total > want+distEpsilon*(1+want) {
		return nil, fmt.Errorf("%w: %d is on no shortest %d->%d path",
			ErrUnreachable, via, d.src, dst)
	}
	head, err := d.pathTo(via)
	if err != nil {
		return nil, err
	}
	tail, err := rev.Path(via) // via..dst
	if err != nil {
		return nil, err
	}
	return append(head, tail[1:]...), nil
}

// pathTo returns one source->v path inside the DAG.
func (d *SPDAG) pathTo(v NodeID) ([]NodeID, error) {
	if math.IsInf(d.dist[v], 1) {
		return nil, fmt.Errorf("%w: %d from %d", ErrUnreachable, v, d.src)
	}
	// Walk backwards along tight incoming edges.
	rev := []NodeID{v}
	cur := v
	for cur != d.src {
		prev := Invalid
		d.g.ForEachIn(cur, func(u NodeID, w float64) bool {
			if d.isDAGEdge(u, cur, w) {
				prev = u
				return false
			}
			return true
		})
		if prev == Invalid {
			return nil, fmt.Errorf("%w: broken DAG at %d", ErrUnreachable, cur)
		}
		rev = append(rev, prev)
		cur = prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

func sortNodesByDist(nodes []NodeID, dist []float64) {
	// Simple binary-insertion-free sort: nodes slices are small; use
	// pattern from sort.Slice without reflection by shelling out to a
	// local quicksort.
	quickSortNodes(nodes, dist, 0, len(nodes)-1)
}

func quickSortNodes(nodes []NodeID, dist []float64, lo, hi int) {
	for lo < hi {
		p := partitionNodes(nodes, dist, lo, hi)
		if p-lo < hi-p {
			quickSortNodes(nodes, dist, lo, p-1)
			lo = p + 1
		} else {
			quickSortNodes(nodes, dist, p+1, hi)
			hi = p - 1
		}
	}
}

func partitionNodes(nodes []NodeID, dist []float64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	nodes[mid], nodes[hi] = nodes[hi], nodes[mid]
	pivot := dist[nodes[hi]]
	i := lo
	for j := lo; j < hi; j++ {
		if dist[nodes[j]] < pivot {
			nodes[i], nodes[j] = nodes[j], nodes[i]
			i++
		}
	}
	nodes[i], nodes[hi] = nodes[hi], nodes[i]
	return i
}
