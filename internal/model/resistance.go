package model

import (
	"fmt"
	"math"
	"sort"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/stats"
)

// Resistance is the effective-resistance ad-value objective: a
// candidate's worth is discounted by how accessible it is to the shop
// under random-walk dynamics, not just along the single shortest detour.
// The street network becomes a resistor network (each directed street of
// length L contributes conductance 1/L to its undirected pair), every
// shop node is grounded, and a node's effective resistance R to the
// ground set is the diagonal entry (L_grounded⁻¹)_vv of the grounded
// Laplacian's inverse. The visit weight is the accessibility map
//
//	A(v) = 1 / (1 + R(v)/Scale)
//
// — 1 at the shops themselves, decaying toward 0 for electrically remote
// nodes, and exactly 0 off the shops' undirected component (no walk
// reaches the shop). Weights multiply the paper's detour gains, so the
// objective stays weighted maximum coverage: monotone submodular.
type Resistance struct {
	// Scale is the resistance R0 at which accessibility halves, in the
	// graph's length unit (feet). Larger scales flatten the weighting
	// toward the base objective.
	Scale float64
	// DenseLimit is the interior-node count up to which the grounded
	// system is solved by one dense Cholesky factorization (envelope-
	// aware, with the resistances read off by one-sided unit solves);
	// larger systems fall back to per-node conjugate gradients. 0 means
	// DefaultDenseLimit. The two paths agree to solver tolerance (pinned
	// by the differential tests), and each is individually deterministic,
	// so engine construction keeps the bit-identity contract. The default
	// stays 512 although the dense path is cheap well beyond it: the
	// resolved limit is part of Params and so of every digest, and moving
	// it would switch mid-size fields from CG to dense (DESIGN.md §3.21).
	DenseLimit int
	// Tol is the CG relative residual tolerance; 0 means DefaultCGTol.
	Tol float64
	// MaxIter caps CG iterations per solve; 0 means 5n+100.
	MaxIter int
}

var _ Objective = Resistance{}

// Defaults for the resistance model's solver knobs.
const (
	DefaultResistanceScale = 5_000.0
	DefaultDenseLimit      = 512
	DefaultCGTol           = 1e-10
)

// DefaultResistance returns the resistance model with default solver
// parameters (a half-accessibility scale of ~10 city blocks).
func DefaultResistance() Resistance { return Resistance{Scale: DefaultResistanceScale} }

// Validate checks the model parameters.
func (m Resistance) Validate() error {
	if math.IsNaN(m.Scale) || math.IsInf(m.Scale, 0) || m.Scale <= 0 {
		return fmt.Errorf("model: resistance scale %v must be a positive finite length", m.Scale)
	}
	if m.DenseLimit < 0 {
		return fmt.Errorf("model: resistance dense limit %d must be non-negative", m.DenseLimit)
	}
	if math.IsNaN(m.Tol) || m.Tol < 0 {
		return fmt.Errorf("model: resistance tolerance %v must be non-negative", m.Tol)
	}
	if m.MaxIter < 0 {
		return fmt.Errorf("model: resistance max iterations %d must be non-negative", m.MaxIter)
	}
	return nil
}

// Name implements Objective.
func (m Resistance) Name() string { return "resistance" }

// Params implements Objective. Defaults are resolved first so two
// parameterizations meaning the same solve digest identically.
func (m Resistance) Params() string {
	return fmt.Sprintf("scale=%g,dense=%d,tol=%g,maxiter=%d",
		m.Scale, m.denseLimit(), m.tol(), m.MaxIter)
}

// Compose implements Objective: resistance reweights the paper's
// best-RAP rule, it does not change the composition.
func (m Resistance) Compose() core.Composition { return core.ComposeBest }

func (m Resistance) denseLimit() int {
	if m.DenseLimit == 0 {
		return DefaultDenseLimit
	}
	return m.DenseLimit
}

func (m Resistance) tol() float64 {
	//lint:ignore floatcmp zero is the documented "use default" sentinel
	if m.Tol == 0 {
		return DefaultCGTol
	}
	return m.Tol
}

// Prepare implements Objective: it solves the grounded Laplacian for the
// effective resistance of every node the flows visit and bakes the
// accessibility map into a per-node weight table.
func (m Resistance) Prepare(p *core.Problem) (core.VisitWeigher, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	shops := shopSet(p)
	need := make([]graph.NodeID, 0, p.Graph.NumNodes())
	for v := 0; v < p.Graph.NumNodes(); v++ {
		if p.Flows.NodeCardinality(graph.NodeID(v)) > 0 {
			need = append(need, graph.NodeID(v))
		}
	}
	res, err := m.Field(p.Graph, shops, need)
	if err != nil {
		return nil, err
	}
	weights := make(nodeWeigher, len(res))
	for v, r := range res {
		switch {
		case math.IsInf(r, 1):
			weights[v] = 0 // no walk reaches the shop
		case math.IsNaN(r):
			weights[v] = 0
		default:
			weights[v] = 1 / (1 + r/m.Scale)
		}
	}
	return weights, nil
}

// shopSet returns the problem's distinct shop nodes in ascending order.
func shopSet(p *core.Problem) []graph.NodeID {
	shops := append([]graph.NodeID{p.Shop}, p.ExtraShops...)
	sort.Slice(shops, func(a, b int) bool { return shops[a] < shops[b] })
	out := shops[:0]
	for _, s := range shops {
		if k := len(out); k == 0 || out[k-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// GroundedLaplacian assembles the symmetrized conductance Laplacian of g
// with the shop rows and columns removed (grounded). It returns the CSR
// matrix over the interior nodes of the shops' undirected component and
// the interior node list in ascending order (interior[i] is matrix row
// i). The grounded Laplacian of a connected component with at least one
// ground node is symmetric positive definite — the resistance-psd
// invariant re-checks this on randomized instances.
func GroundedLaplacian(g *graph.Graph, shops []graph.NodeID) (*stats.SparseSPD, []graph.NodeID, error) {
	if g == nil || len(shops) == 0 {
		return nil, nil, fmt.Errorf("model: grounded laplacian needs a graph and at least one shop")
	}
	n := g.NumNodes()
	for _, s := range shops {
		if !g.ValidNode(s) {
			return nil, nil, fmt.Errorf("model: shop %d: %w", s, graph.ErrNodeRange)
		}
	}
	adj, err := symmetrize(g)
	if err != nil {
		return nil, nil, err
	}

	// Restrict to the shops' undirected component: outside it the grounded
	// system is singular (a floating component has no path to ground).
	inComp := make([]bool, n)
	queue := make([]graph.NodeID, 0, n)
	for _, s := range shops {
		if !inComp[s] {
			inComp[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range adj[u] {
			if !inComp[e.to] {
				inComp[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	isShop := make([]bool, n)
	for _, s := range shops {
		isShop[s] = true
	}
	interior := make([]graph.NodeID, 0, n)
	idx := make([]int32, n)
	for v := 0; v < n; v++ {
		idx[v] = -1
		if inComp[v] && !isShop[v] {
			idx[v] = int32(len(interior))
			interior = append(interior, graph.NodeID(v))
		}
	}

	// CSR rows in interior order, columns ascending: the diagonal keeps
	// the full incident conductance (including edges into ground), the
	// off-diagonals are the negated interior-interior conductances.
	sp := &stats.SparseSPD{N: len(interior), RowOff: make([]int32, len(interior)+1)}
	for i, v := range interior {
		var diag float64
		rowStart := len(sp.Col)
		for _, e := range adj[v] {
			diag += e.c
			if j := idx[e.to]; j >= 0 {
				sp.Col = append(sp.Col, j)
				sp.Val = append(sp.Val, -e.c)
			}
		}
		// Insert the diagonal keeping the row sorted by column.
		pos := rowStart + sort.Search(len(sp.Col)-rowStart, func(k int) bool {
			return sp.Col[rowStart+k] >= int32(i)
		})
		sp.Col = append(sp.Col, 0)
		sp.Val = append(sp.Val, 0)
		copy(sp.Col[pos+1:], sp.Col[pos:])
		copy(sp.Val[pos+1:], sp.Val[pos:])
		sp.Col[pos] = int32(i)
		sp.Val[pos] = diag
		sp.RowOff[i+1] = int32(len(sp.Col))
	}
	return sp, interior, nil
}

// undirEdge is one symmetrized adjacency entry: conductance c toward
// neighbor to.
type undirEdge struct {
	to graph.NodeID
	c  float64
}

// symmetrize folds g's directed streets into undirected conductances:
// each directed edge of length L adds 1/L to its endpoint pair, so
// two-way streets conduct twice as well as one-way ones. Adjacency lists
// come back sorted by neighbor with duplicates merged in insertion order,
// keeping the assembly deterministic.
func symmetrize(g *graph.Graph) ([][]undirEdge, error) {
	n := g.NumNodes()
	adj := make([][]undirEdge, n)
	var bad error
	for u := 0; u < n; u++ {
		g.ForEachOut(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
			if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				bad = fmt.Errorf("model: street %d->%d has non-positive length %v", u, v, w)
				return false
			}
			if graph.NodeID(u) == v {
				return true // self-loops carry no current
			}
			c := 1 / w
			adj[u] = append(adj[u], undirEdge{to: v, c: c})
			adj[v] = append(adj[v], undirEdge{to: graph.NodeID(u), c: c})
			return true
		})
		if bad != nil {
			return nil, bad
		}
	}
	for u := range adj {
		row := adj[u]
		sort.SliceStable(row, func(a, b int) bool { return row[a].to < row[b].to })
		out := row[:0]
		for _, e := range row {
			if k := len(out); k > 0 && out[k-1].to == e.to {
				out[k-1].c += e.c
			} else {
				out = append(out, e)
			}
		}
		adj[u] = out
	}
	return adj, nil
}

// Field computes each node's effective resistance to the grounded shop
// set: exactly 0 at the shops, +Inf off their undirected component, and
// (L_grounded⁻¹)_vv in between. need restricts which nodes are resolved
// under the per-node CG fallback (nil means all); nodes outside need
// report +Inf there. The dense path always resolves every interior node.
func (m Resistance) Field(g *graph.Graph, shops, need []graph.NodeID) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sp, interior, err := GroundedLaplacian(g, shops)
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	res := make([]float64, n)
	for v := range res {
		res[v] = math.Inf(1)
	}
	for _, s := range shops {
		res[s] = 0
	}
	if len(interior) == 0 {
		return res, nil
	}
	if sp.N <= m.denseLimit() {
		l, err := stats.Cholesky(sp.Dense())
		if err != nil {
			return nil, fmt.Errorf("model: grounded laplacian not SPD: %w", err)
		}
		for i, r := range stats.CholeskyInverseDiag(l) {
			res[interior[i]] = r
		}
		return res, nil
	}
	rowOf := make(map[graph.NodeID]int, len(interior))
	for i, v := range interior {
		rowOf[v] = i
	}
	maxIter := m.MaxIter
	if maxIter == 0 {
		maxIter = 5*sp.N + 100
	}
	solve := need
	if solve == nil {
		solve = interior
	}
	e := make([]float64, sp.N)
	for _, v := range solve {
		i, ok := rowOf[v]
		if !ok {
			continue // shop or off-component node; already 0 or +Inf
		}
		e[i] = 1
		x, _, err := stats.CG(sp, e, m.tol(), maxIter)
		e[i] = 0
		if err != nil {
			return nil, fmt.Errorf("model: resistance CG at node %d: %w", v, err)
		}
		res[v] = x[i]
	}
	return res, nil
}
