package invariant

import (
	"math"
	"testing"

	"roadside/internal/core"
	"roadside/internal/graph"
)

// TestInvariantsHoldOnEnsemble is the in-tree slice of the soak gate: every
// registered invariant must hold on a deterministic ensemble of generated
// instances. cmd/soak runs the same checks over far more seeds.
func TestInvariantsHoldOnEnsemble(t *testing.T) {
	const instances = 25
	for _, inv := range All() {
		inv := inv
		t.Run(inv.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < instances; seed++ {
				inst, err := Generate(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := inv.Check(inst); err != nil {
					t.Errorf("seed %d (%s): %v", seed, inst.Name, err)
				}
			}
		})
	}
}

// TestPlacementsIdenticalComparesBits pins the comparator to bit patterns:
// a -0 step gain differs from +0, and one NaN payload from another, even
// though != would call the first pair equal and every NaN pair different.
func TestPlacementsIdenticalComparesBits(t *testing.T) {
	mk := func(gain, attracted float64) *core.Placement {
		return &core.Placement{Nodes: []graph.NodeID{3, 1}, StepGains: []float64{2, gain}, Attracted: attracted}
	}
	nan := math.NaN()
	if err := placementsIdentical(mk(0, nan), mk(0, nan)); err != nil {
		t.Errorf("identical placements (NaN objective) reported different: %v", err)
	}
	if err := placementsIdentical(mk(0, 1), mk(math.Copysign(0, -1), 1)); err == nil {
		t.Error("+0 and -0 step gains reported identical")
	}
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	if err := placementsIdentical(mk(0, nan), mk(0, otherNaN)); err == nil {
		t.Error("different NaN payloads reported identical")
	}
	if err := placementsIdentical(mk(0, 1), &core.Placement{Nodes: []graph.NodeID{3}, StepGains: []float64{2}, Attracted: 1}); err == nil {
		t.Error("a shorter placement reported identical")
	}
}
