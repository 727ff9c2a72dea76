// Package classify stratifies street intersections into city's center,
// city, and suburb classes by the amount of passing traffic, as the paper's
// shop-location experiments require ("all the street intersections in both
// traces are classified into city's center, city, or suburb" according to
// the amount of passing traffic flows, Section V-A).
package classify

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"roadside/internal/flow"
	"roadside/internal/graph"
)

// Errors reported by the classifier.
var (
	ErrBadFraction = errors.New("classify: fractions must be positive and sum below 1")
	ErrNoNodes     = errors.New("classify: no nodes")
	ErrEmptyClass  = errors.New("classify: class has no intersections")
)

// Class is an intersection stratum.
type Class int

// Strata, ordered from heaviest to lightest traffic.
const (
	Center Class = iota + 1
	City
	Suburb
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Center:
		return "center"
	case City:
		return "city"
	case Suburb:
		return "suburb"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classification assigns every intersection to a stratum.
type Classification struct {
	classOf []Class
	byClass map[Class][]graph.NodeID
}

// Options tunes the stratification quantiles.
type Options struct {
	// CenterFrac is the fraction of intersections labeled Center
	// (heaviest traffic; default 0.10).
	CenterFrac float64
	// CityFrac is the fraction labeled City (next heaviest;
	// default 0.30). The remainder is Suburb.
	CityFrac float64
}

// Classify stratifies the numNodes intersections of the graph underlying fs
// by passing daily volume: the top CenterFrac are Center, the next CityFrac
// are City, the rest Suburb. Ties break by node ID for determinism.
func Classify(fs *flow.Set, numNodes int, opts Options) (*Classification, error) {
	if numNodes <= 0 {
		return nil, ErrNoNodes
	}
	centerFrac := opts.CenterFrac
	//lint:ignore floatcmp exact zero is the documented "unset" sentinel
	if centerFrac == 0 {
		centerFrac = 0.10
	}
	cityFrac := opts.CityFrac
	//lint:ignore floatcmp exact zero is the documented "unset" sentinel
	if cityFrac == 0 {
		cityFrac = 0.30
	}
	if centerFrac <= 0 || cityFrac <= 0 || centerFrac+cityFrac >= 1 {
		return nil, fmt.Errorf("%w: center=%v city=%v", ErrBadFraction, centerFrac, cityFrac)
	}
	order := make([]graph.NodeID, numNodes)
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		va, vb := fs.NodeVolume(order[a]), fs.NodeVolume(order[b])
		//lint:ignore floatcmp sort comparator needs exact compare; epsilon would break transitivity
		if va != vb {
			return va > vb
		}
		return order[a] < order[b]
	})
	c := &Classification{
		classOf: make([]Class, numNodes),
		byClass: make(map[Class][]graph.NodeID, 3),
	}
	nCenter := int(centerFrac * float64(numNodes))
	if nCenter < 1 {
		nCenter = 1
	}
	nCity := int(cityFrac * float64(numNodes))
	if nCity < 1 {
		nCity = 1
	}
	for rank, v := range order {
		var cl Class
		switch {
		case rank < nCenter:
			cl = Center
		case rank < nCenter+nCity:
			cl = City
		default:
			cl = Suburb
		}
		c.classOf[v] = cl
		c.byClass[cl] = append(c.byClass[cl], v)
	}
	return c, nil
}

// Of returns the class of intersection v.
func (c *Classification) Of(v graph.NodeID) Class { return c.classOf[v] }

// Nodes returns the intersections of a class in volume-rank order. The
// returned slice is shared and must not be modified.
func (c *Classification) Nodes(cl Class) []graph.NodeID { return c.byClass[cl] }

// Sample draws a uniformly random intersection of the class, the way the
// experiments pick shop locations ("intersections with tags of city are
// randomly selected as the shop locations").
func (c *Classification) Sample(cl Class, rng *rand.Rand) (graph.NodeID, error) {
	nodes := c.byClass[cl]
	if len(nodes) == 0 {
		return graph.Invalid, fmt.Errorf("%w: %v", ErrEmptyClass, cl)
	}
	return nodes[rng.Intn(len(nodes))], nil
}
