// Package flow models daily traffic flows: a number of vehicles that travel
// from an origin intersection to a destination intersection along a known
// path (Section III-A of the paper). Flows carry a daily driver volume and
// an advertisement attractiveness alpha, and are the "elements" of the
// paper's weighted-coverage formulation.
package flow

import (
	"errors"
	"fmt"
	"math"

	"roadside/internal/graph"
)

// Errors reported by flow validation.
var (
	ErrBadPath   = errors.New("flow: invalid path")
	ErrBadVolume = errors.New("flow: volume must be positive and finite")
	ErrBadAlpha  = errors.New("flow: alpha must be in [0, 1]")
	ErrEmptySet  = errors.New("flow: empty flow set")
)

// Flow is a daily traffic flow T_{i,j}: Volume drivers travel from Origin
// to Dest along Path each day, and each responds to an advertisement with
// base probability Alpha when no detour is needed.
type Flow struct {
	// ID is a human-readable identifier (e.g. the trace journey or route
	// ID the flow was aggregated from).
	ID string
	// Origin and Dest are the endpoints; they must match the path ends.
	Origin, Dest graph.NodeID
	// Path is the fixed traveling route as a node sequence. In the general
	// scenario (Section III) the route is known a priori; the Manhattan
	// scenario (Section IV) relaxes it and only Origin/Dest matter.
	Path []graph.NodeID
	// Volume is the number of drivers per day.
	Volume float64
	// Alpha is the advertisement attractiveness for this flow.
	Alpha float64
}

// New constructs a flow over the given path and validates the scalar
// fields. The path is copied.
func New(id string, path []graph.NodeID, volume, alpha float64) (Flow, error) {
	if len(path) < 2 {
		return Flow{}, fmt.Errorf("%w: need at least 2 nodes, got %d", ErrBadPath, len(path))
	}
	if volume <= 0 || math.IsNaN(volume) || volume > 1e18 {
		return Flow{}, fmt.Errorf("%w: %v", ErrBadVolume, volume)
	}
	if alpha < 0 || alpha > 1 || math.IsNaN(alpha) {
		return Flow{}, fmt.Errorf("%w: %v", ErrBadAlpha, alpha)
	}
	p := append([]graph.NodeID(nil), path...)
	return Flow{
		ID:     id,
		Origin: p[0],
		Dest:   p[len(p)-1],
		Path:   p,
		Volume: volume,
		Alpha:  alpha,
	}, nil
}

// Validate checks that the flow's path is a real walk in g (every
// consecutive pair is an edge) and the endpoints match.
func (f Flow) Validate(g *graph.Graph) error {
	if len(f.Path) < 2 {
		return fmt.Errorf("%w: flow %q has %d nodes", ErrBadPath, f.ID, len(f.Path))
	}
	if f.Path[0] != f.Origin || f.Path[len(f.Path)-1] != f.Dest {
		return fmt.Errorf("%w: flow %q endpoints do not match path", ErrBadPath, f.ID)
	}
	if _, err := g.PathLength(f.Path); err != nil {
		return fmt.Errorf("flow %q: %w", f.ID, err)
	}
	return nil
}

// Length returns the total path length of the flow in g.
func (f Flow) Length(g *graph.Graph) (float64, error) {
	return g.PathLength(f.Path)
}

// List is a plain flow list: what a decoded flow list is once validated
// (Parsed.List), before NewSet builds its incidence index.
type List []Flow

// Len returns the number of flows.
func (l List) Len() int { return len(l) }

// At returns the i-th flow.
func (l List) At(i int) Flow { return l[i] }

// ValidateAll checks every flow's path against g.
func (l List) ValidateAll(g *graph.Graph) error {
	for i, f := range l {
		if err := f.Validate(g); err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return nil
}

// Set is an immutable collection of flows with per-node incidence lookups.
type Set struct {
	flows  []Flow
	byNode map[graph.NodeID][]Visit
}

// Visit records that a flow's path passes through a node at a position.
type Visit struct {
	// Flow indexes into the set.
	Flow int
	// Pos is the index within the flow's path (0 = origin).
	Pos int
}

// NewSet builds a set and its node incidence index. Flows are copied.
// A node visited multiple times by the same flow (possible for map-matched
// routes) records only the first visit, which by Theorem 1 is the one with
// the smallest detour on shortest-path routes and is the first RAP
// encounter in all cases.
func NewSet(flows []Flow) (*Set, error) {
	if len(flows) == 0 {
		return nil, ErrEmptySet
	}
	s := &Set{
		flows:  append([]Flow(nil), flows...),
		byNode: make(map[graph.NodeID][]Visit),
	}
	for i, f := range s.flows {
		if len(f.Path) < 2 {
			return nil, fmt.Errorf("%w: flow %d (%q)", ErrBadPath, i, f.ID)
		}
		for pos, v := range f.Path {
			// Flows are indexed in order, so flow i has already visited v
			// exactly when v's newest visit is flow i's: the index itself
			// is the seen-set, shared by every flow.
			vs := s.byNode[v]
			if n := len(vs); n > 0 && vs[n-1].Flow == i {
				continue
			}
			s.byNode[v] = append(vs, Visit{Flow: i, Pos: pos})
		}
	}
	return s, nil
}

// NewSetSharedIndex builds a set over flows reusing base's node-incidence
// index instead of rebuilding it. The index depends only on flow paths, so
// the caller must pass flows whose paths equal base's at every index —
// only scalar fields (volume, alpha, ID) may differ. It is the
// volume-drift fast path of the engine delta layer: O(flows) validation
// with no per-node map work. Path equality is spot-checked (count, length,
// endpoints); full equality is the caller's contract. The set takes
// ownership of flows, which the caller must not modify afterwards; the
// index is shared, which is safe because sets are immutable.
func NewSetSharedIndex(base *Set, flows []Flow) (*Set, error) {
	if len(flows) != len(base.flows) {
		return nil, fmt.Errorf("%w: shared-index set has %d flows, base %d",
			ErrBadPath, len(flows), len(base.flows))
	}
	for i, f := range flows {
		b := base.flows[i]
		if len(f.Path) != len(b.Path) || f.Origin != b.Origin || f.Dest != b.Dest {
			return nil, fmt.Errorf("%w: flow %d path differs from base", ErrBadPath, i)
		}
		if f.Volume <= 0 || math.IsNaN(f.Volume) || f.Volume > 1e18 {
			return nil, fmt.Errorf("%w: flow %d: %v", ErrBadVolume, i, f.Volume)
		}
		if f.Alpha < 0 || f.Alpha > 1 || math.IsNaN(f.Alpha) {
			return nil, fmt.Errorf("%w: flow %d: %v", ErrBadAlpha, i, f.Alpha)
		}
	}
	return &Set{flows: flows, byNode: base.byNode}, nil
}

// Len returns the number of flows.
func (s *Set) Len() int { return len(s.flows) }

// At returns the i-th flow.
func (s *Set) At(i int) Flow { return s.flows[i] }

// Flows returns a copy of the flow slice.
func (s *Set) Flows() []Flow { return append([]Flow(nil), s.flows...) }

// VisitsAt returns the flows passing through node v as (flow index, path
// position) pairs. The returned slice is shared and must not be modified.
func (s *Set) VisitsAt(v graph.NodeID) []Visit { return s.byNode[v] }

// TotalVolume returns the sum of all flow volumes.
func (s *Set) TotalVolume() float64 {
	var total float64
	for _, f := range s.flows {
		total += f.Volume
	}
	return total
}

// NodeVolume returns the total daily volume passing through node v.
func (s *Set) NodeVolume(v graph.NodeID) float64 {
	var total float64
	for _, vis := range s.byNode[v] {
		total += s.flows[vis.Flow].Volume
	}
	return total
}

// NodeCardinality returns the number of distinct flows through node v.
func (s *Set) NodeCardinality(v graph.NodeID) int { return len(s.byNode[v]) }

// ValidateAll checks every flow's path against g.
func (s *Set) ValidateAll(g *graph.Graph) error { return List(s.flows).ValidateAll(g) }
