// Package baseline implements the four comparison algorithms of the
// paper's evaluation (Section V-B):
//
//   - MaxCardinality: top-k intersections by number of passing flows.
//   - MaxVehicles: top-k intersections by passing daily vehicle volume.
//   - MaxCustomers: top-k intersections by standalone attracted customers;
//     equivalent to the optimal algorithm at k = 1.
//   - Random: k intersections drawn uniformly from the D x D square
//     centered at the shop.
package baseline

import (
	"errors"
	"math/rand"
	"sort"

	"roadside/internal/core"
	"roadside/internal/geo"
	"roadside/internal/graph"
)

// ErrNilRand is returned by Random when no random source is supplied.
var ErrNilRand = errors.New("baseline: nil *rand.Rand")

// MaxCardinality places RAPs at the k intersections with the most passing
// traffic flows, ignoring detour distances entirely.
func MaxCardinality(e *core.Engine) (*core.Placement, error) {
	return topK(e, func(v graph.NodeID) float64 {
		return float64(e.Problem().Flows.NodeCardinality(v))
	})
}

// MaxVehicles places RAPs at the k intersections with the highest passing
// daily vehicle volume.
func MaxVehicles(e *core.Engine) (*core.Placement, error) {
	return topK(e, func(v graph.NodeID) float64 {
		return e.Problem().Flows.NodeVolume(v)
	})
}

// MaxCustomers places RAPs at the k intersections that would individually
// attract the most customers. At k = 1 this is optimal; for larger k it
// ignores overlap between RAPs.
func MaxCustomers(e *core.Engine) (*core.Placement, error) {
	return topK(e, e.StandaloneGain)
}

// topK ranks candidates by score (ties by node ID) and returns the best k.
func topK(e *core.Engine, score func(graph.NodeID) float64) (*core.Placement, error) {
	cands := append([]graph.NodeID(nil), e.Candidates()...)
	sort.Slice(cands, func(a, b int) bool {
		sa, sb := score(cands[a]), score(cands[b])
		//lint:ignore floatcmp sort comparator needs exact compare; epsilon would break transitivity
		if sa != sb {
			return sa > sb
		}
		return cands[a] < cands[b]
	})
	k := e.Problem().K
	if k > len(cands) {
		k = len(cands)
	}
	nodes := append([]graph.NodeID(nil), cands[:k]...)
	return &core.Placement{Nodes: nodes, Attracted: e.Evaluate(nodes)}, nil
}

// Random places the k RAPs uniformly at random (without replacement) among
// the candidate intersections inside the D x D square centered at the shop,
// where D is the utility threshold. If the square holds fewer than k
// candidates, the remainder is drawn from the full candidate set, so the
// baseline always places k RAPs like the other algorithms.
func Random(e *core.Engine, rng *rand.Rand) (*core.Placement, error) {
	if rng == nil {
		return nil, ErrNilRand
	}
	p := e.Problem()
	square := geo.Square(p.Graph.Point(p.Shop), p.Utility.Threshold())
	var inside, outside []graph.NodeID
	for _, v := range e.Candidates() {
		if square.Contains(p.Graph.Point(v)) {
			inside = append(inside, v)
		} else {
			outside = append(outside, v)
		}
	}
	k := p.K
	if k > len(inside)+len(outside) {
		k = len(inside) + len(outside)
	}
	nodes := make([]graph.NodeID, 0, k)
	nodes = appendSample(nodes, inside, k, rng)
	if len(nodes) < k {
		nodes = appendSample(nodes, outside, k, rng)
	}
	return &core.Placement{Nodes: nodes, Attracted: e.Evaluate(nodes)}, nil
}

// appendSample appends a uniform sample (without replacement) from pool to
// dst until dst reaches size k or pool is exhausted. pool is shuffled in
// place.
func appendSample(dst, pool []graph.NodeID, k int, rng *rand.Rand) []graph.NodeID {
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, v := range pool {
		if len(dst) >= k {
			break
		}
		dst = append(dst, v)
	}
	return dst
}
