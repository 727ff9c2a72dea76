package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"roadside/internal/geo"
)

// Property: the dist-heap always pops in non-decreasing order regardless of
// push order.
func TestDistHeapOrdering(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%64 + 1
		h := newDistHeap(n)
		for i := 0; i < n; i++ {
			h.push(NodeID(i), rng.Float64()*1000)
		}
		prev := -1.0
		for h.len() > 0 {
			_, d := h.pop()
			if d < prev {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the dist-heap with interleaved pushes and pops still yields the
// global minimum of the live set at each pop.
func TestDistHeapInterleaved(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := newDistHeap(8)
		var live []float64
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				d := rng.Float64() * 100
				h.push(NodeID(op), d)
				live = append(live, d)
			} else {
				_, got := h.pop()
				minIdx := 0
				for i, d := range live {
					if d < live[minIdx] {
						minIdx = i
					}
				}
				if got != live[minIdx] {
					return false
				}
				live = append(live[:minIdx], live[minIdx+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Build is idempotent over edge insertion order — shuffling the
// edge list yields an identical distance structure.
func TestBuildOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	for trial := 0; trial < 10; trial++ {
		n := 20
		type e struct {
			u, v NodeID
			w    float64
		}
		edges := make([]e, 0, 60)
		for i := 0; i < n; i++ {
			edges = append(edges, e{NodeID(i), NodeID((i + 1) % n), 1 + rng.Float64()})
		}
		for i := 0; i < 40; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				edges = append(edges, e{NodeID(u), NodeID(v), 1 + rng.Float64()*5})
			}
		}
		build := func(order []e) *Graph {
			b := NewBuilder(n, len(order))
			for i := 0; i < n; i++ {
				b.AddNode(geo.Pt(float64(i), 0))
			}
			for _, ed := range order {
				if err := b.AddEdge(ed.u, ed.v, ed.w); err != nil {
					t.Fatal(err)
				}
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		g1 := build(edges)
		shuffled := append([]e(nil), edges...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		g2 := build(shuffled)
		if g1.NumEdges() != g2.NumEdges() {
			t.Fatalf("trial %d: edge counts differ", trial)
		}
		for u := 0; u < n; u++ {
			t1, t2 := mustShortestFrom(t, g1, NodeID(u)), mustShortestFrom(t, g2, NodeID(u))
			for v := 0; v < n; v++ {
				if t1.Dist(NodeID(v)) != t2.Dist(NodeID(v)) {
					t.Fatalf("trial %d: dist(%d,%d) differs", trial, u, v)
				}
			}
		}
	}
}
