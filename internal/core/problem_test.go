package core

import (
	"math"
	"testing"

	"roadside/internal/graph"
)

// TestSamePlacementComparesBits pins the placement comparator to bit
// patterns: a -0 step gain differs from +0 and one NaN payload from
// another, even though != would call the first pair equal and every NaN
// pair different. Step kinds count, but a nil and an empty list do not
// differ, because JSON omitempty round-trips an empty list to nil.
func TestSamePlacementComparesBits(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	mk := func(gain, attracted float64, kinds []string) *Placement {
		return &Placement{Nodes: []graph.NodeID{3, 1}, StepGains: []float64{2, gain},
			Attracted: attracted, StepKinds: kinds}
	}
	for _, tc := range []struct {
		name      string
		want, got *Placement
		same      bool
	}{
		{"identical with NaN objective", mk(0, nan, nil), mk(0, nan, nil), true},
		{"nil vs empty step kinds", mk(0, 1, nil), mk(0, 1, []string{}), true},
		{"+0 vs -0 step gain", mk(0, 1, nil), mk(math.Copysign(0, -1), 1, nil), false},
		{"NaN payloads", mk(0, nan, nil), mk(0, otherNaN, nil), false},
		{"shorter placement", mk(0, 1, nil),
			&Placement{Nodes: []graph.NodeID{3}, StepGains: []float64{2}, Attracted: 1}, false},
		{"swapped nodes", mk(0, 1, nil),
			&Placement{Nodes: []graph.NodeID{1, 3}, StepGains: []float64{2, 0}, Attracted: 1}, false},
		{"missing step gain", mk(0, 1, nil),
			&Placement{Nodes: []graph.NodeID{3, 1}, StepGains: []float64{2}, Attracted: 1}, false},
		{"step kind mismatch",
			mk(0, 1, []string{StepKindUncovered, StepKindCovered}),
			mk(0, 1, []string{StepKindUncovered, StepKindUncovered}), false},
		{"step kinds missing", mk(0, 1, []string{StepKindUncovered, StepKindCovered}), mk(0, 1, nil), false},
	} {
		err := SamePlacement(tc.want, tc.got)
		if tc.same && err != nil {
			t.Errorf("%s: reported different: %v", tc.name, err)
		}
		if !tc.same && err == nil {
			t.Errorf("%s: reported identical", tc.name)
		}
	}
}
