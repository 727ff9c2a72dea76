// Package graph implements the directed, weighted road graph underlying the
// RAP placement model: street intersections are nodes, one-way street
// segments are edges, and edge weights are segment lengths in feet.
//
// The representation is a compressed sparse row (CSR) adjacency for both the
// forward and reverse direction, which makes single-source and
// single-destination Dijkstra, batched trees, grouped many-to-many
// distances, and shortest-path-DAG queries cache-friendly. Graphs are
// immutable after Build and safe for concurrent use.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"roadside/internal/geo"
)

// NodeID identifies a street intersection. IDs are dense, starting at 0 in
// insertion order.
type NodeID int32

// Invalid is the sentinel for "no node".
const Invalid NodeID = -1

// Errors returned by the builder and graph accessors.
var (
	ErrNodeRange   = errors.New("graph: node id out of range")
	ErrBadWeight   = errors.New("graph: edge weight must be positive and finite")
	ErrNoNodes     = errors.New("graph: graph has no nodes")
	ErrDisconnect  = errors.New("graph: graph is not strongly connected")
	ErrDuplicate   = errors.New("graph: duplicate edge")
	ErrSelfLoop    = errors.New("graph: self loop")
	ErrUnreachable = errors.New("graph: no path between nodes")
	ErrDistOnly    = errors.New("graph: tree was built distance-only, no parent pointers")
	ErrTooManyNode = errors.New("graph: node count exceeds int32 id space")
)

type edge struct {
	from, to NodeID
	w        float64
}

// Builder accumulates nodes and edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	pts   []geo.Point
	edges []edge
}

// NewBuilder returns a builder with capacity hints for n nodes and m edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		pts:   make([]geo.Point, 0, n),
		edges: make([]edge, 0, m),
	}
}

// AddNode adds an intersection at p and returns its ID.
func (b *Builder) AddNode(p geo.Point) NodeID {
	b.pts = append(b.pts, p)
	return NodeID(len(b.pts) - 1)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.pts) }

// Point returns the location of node id, or an error if out of range.
func (b *Builder) Point(id NodeID) (geo.Point, error) {
	if int(id) < 0 || int(id) >= len(b.pts) {
		return geo.Point{}, fmt.Errorf("%w: %d", ErrNodeRange, id)
	}
	return b.pts[id], nil
}

// AddEdge adds a one-way street from u to v with length w feet.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if int(u) < 0 || int(u) >= len(b.pts) || int(v) < 0 || int(v) >= len(b.pts) {
		return fmt.Errorf("%w: edge (%d,%d)", ErrNodeRange, u, v)
	}
	if u == v {
		return fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadWeight, w)
	}
	b.edges = append(b.edges, edge{from: u, to: v, w: w})
	return nil
}

// AddStreet adds a two-way street between u and v (one edge per direction)
// with length w feet.
func (b *Builder) AddStreet(u, v NodeID, w float64) error {
	if err := b.AddEdge(u, v, w); err != nil {
		return err
	}
	return b.AddEdge(v, u, w)
}

// AddEuclideanEdge adds a one-way street whose weight is the Euclidean
// distance between the endpoints.
func (b *Builder) AddEuclideanEdge(u, v NodeID) error {
	pu, err := b.Point(u)
	if err != nil {
		return err
	}
	pv, err := b.Point(v)
	if err != nil {
		return err
	}
	return b.AddEdge(u, v, pu.Euclidean(pv))
}

// AddEuclideanStreet adds a two-way street weighted by Euclidean distance.
func (b *Builder) AddEuclideanStreet(u, v NodeID) error {
	if err := b.AddEuclideanEdge(u, v); err != nil {
		return err
	}
	return b.AddEuclideanEdge(v, u)
}

// checkNodeCount guards the int-to-NodeID (int32) conversion: a runaway
// generator must fail loudly instead of silently truncating IDs.
func checkNodeCount(n int) error {
	if int64(n) > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes", ErrTooManyNode, n)
	}
	return nil
}

// Build freezes the builder into an immutable Graph. Duplicate parallel
// edges are collapsed to the minimum weight. It returns ErrNoNodes for an
// empty builder.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.pts)
	if n == 0 {
		return nil, ErrNoNodes
	}
	if err := checkNodeCount(n); err != nil {
		return nil, err
	}
	// Sort and dedupe edges (keep minimum weight for parallels).
	es := append([]edge(nil), b.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i].from != es[j].from {
			return es[i].from < es[j].from
		}
		if es[i].to != es[j].to {
			return es[i].to < es[j].to
		}
		return es[i].w < es[j].w
	})
	deduped := es[:0]
	for _, e := range es {
		if k := len(deduped); k > 0 && deduped[k-1].from == e.from && deduped[k-1].to == e.to {
			continue // keep the smaller weight, already first after sort
		}
		deduped = append(deduped, e)
	}
	es = deduped

	g := &Graph{
		pts:    append([]geo.Point(nil), b.pts...),
		outOff: make([]int32, n+1),
		outDst: make([]NodeID, len(es)),
		outW:   make([]float64, len(es)),
		inOff:  make([]int32, n+1),
		inSrc:  make([]NodeID, len(es)),
		inW:    make([]float64, len(es)),
	}
	// Forward CSR (es already sorted by from).
	for _, e := range es {
		g.outOff[e.from+1]++
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	fill := make([]int32, n)
	for _, e := range es {
		p := g.outOff[e.from] + fill[e.from]
		g.outDst[p] = e.to
		g.outW[p] = e.w
		fill[e.from]++
	}
	// Reverse CSR.
	for _, e := range es {
		g.inOff[e.to+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	for i := range fill {
		fill[i] = 0
	}
	for _, e := range es {
		p := g.inOff[e.to] + fill[e.to]
		g.inSrc[p] = e.from
		g.inW[p] = e.w
		fill[e.to]++
	}
	return g, nil
}

// Graph is an immutable directed weighted road graph.
type Graph struct {
	pts    []geo.Point
	outOff []int32
	outDst []NodeID
	outW   []float64
	inOff  []int32
	inSrc  []NodeID
	inW    []float64
}

// NumNodes returns the number of intersections.
func (g *Graph) NumNodes() int { return len(g.pts) }

// NumEdges returns the number of directed street segments.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// Point returns the planar location of node id. It panics on an
// out-of-range ID, matching slice semantics; use ValidNode to check first.
func (g *Graph) Point(id NodeID) geo.Point { return g.pts[id] }

// ValidNode reports whether id names a node of g.
func (g *Graph) ValidNode(id NodeID) bool {
	return id >= 0 && int(id) < len(g.pts)
}

// Points returns a copy of all node locations indexed by NodeID.
func (g *Graph) Points() []geo.Point {
	return append([]geo.Point(nil), g.pts...)
}

// OutDegree returns the number of edges leaving u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.outOff[u+1] - g.outOff[u])
}

// InDegree returns the number of edges entering u.
func (g *Graph) InDegree(u NodeID) int {
	return int(g.inOff[u+1] - g.inOff[u])
}

// ForEachOut calls fn for every edge u->v with weight w. Iteration stops if
// fn returns false.
func (g *Graph) ForEachOut(u NodeID, fn func(v NodeID, w float64) bool) {
	for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
		if !fn(g.outDst[i], g.outW[i]) {
			return
		}
	}
}

// ForEachIn calls fn for every edge v->u with weight w. Iteration stops if
// fn returns false.
func (g *Graph) ForEachIn(u NodeID, fn func(v NodeID, w float64) bool) {
	for i := g.inOff[u]; i < g.inOff[u+1]; i++ {
		if !fn(g.inSrc[i], g.inW[i]) {
			return
		}
	}
}

// EdgeWeight returns the weight of edge u->v, or ErrUnreachable if the edge
// does not exist.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, error) {
	if !g.ValidNode(u) || !g.ValidNode(v) {
		return 0, fmt.Errorf("%w: (%d,%d)", ErrNodeRange, u, v)
	}
	for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
		if g.outDst[i] == v {
			return g.outW[i], nil
		}
	}
	return 0, fmt.Errorf("%w: edge (%d,%d)", ErrUnreachable, u, v)
}

// BBox returns the bounding box of all node locations.
func (g *Graph) BBox() geo.BBox {
	b := geo.EmptyBBox()
	for _, p := range g.pts {
		b = b.Extend(p)
	}
	return b
}

// PathLength returns the total weight of the node path, validating that
// every consecutive pair is an edge of g.
func (g *Graph) PathLength(path []NodeID) (float64, error) {
	var total float64
	for i := 1; i < len(path); i++ {
		w, err := g.EdgeWeight(path[i-1], path[i])
		if err != nil {
			return 0, fmt.Errorf("path step %d: %w", i, err)
		}
		total += w
	}
	return total, nil
}
