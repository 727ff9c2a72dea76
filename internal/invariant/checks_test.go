package invariant

import (
	"math"
	"strings"
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

// TestSameOutcomeReportsEveryDifference pins the differential driver's
// comparator: a driver that compared nothing would still pass
// TestInvariantsHoldOnEnsemble, so each kind of difference a variant can
// show must be reported, and an identical outcome (NaN payload included)
// must not be.
func TestSameOutcomeReportsEveryDifference(t *testing.T) {
	nan := math.NaN()
	base := func() *outcome {
		return &outcome{
			fingerprints: []uint64{0xfeed, 7},
			placements: []*core.Placement{
				{Nodes: []graph.NodeID{3, 1}, StepGains: []float64{2, 1}, Attracted: 3},
			},
			values: []float64{0, nan, 1.5},
		}
	}
	if err := sameOutcome(base(), base()); err != nil {
		t.Fatalf("identical outcomes reported different: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*outcome)
	}{
		{"flipped fingerprint bit", func(o *outcome) { o.fingerprints[1] ^= 1 << 40 }},
		{"swapped nodes", func(o *outcome) { o.placements[0].Nodes = []graph.NodeID{1, 3} }},
		{"+0 vs -0 value", func(o *outcome) { o.values[0] = math.Copysign(0, -1) }},
		{"NaN payloads", func(o *outcome) { o.values[1] = math.Float64frombits(math.Float64bits(nan) ^ 1) }},
		{"fingerprint count", func(o *outcome) { o.fingerprints = o.fingerprints[:1] }},
		{"placement count", func(o *outcome) { o.placements = append(o.placements, o.placements[0]) }},
		{"value count", func(o *outcome) { o.values = o.values[:2] }},
	} {
		got := base()
		tc.mutate(got)
		if err := sameOutcome(base(), got); err == nil {
			t.Errorf("%s: reported identical", tc.name)
		}
		if err := sameOutcome(got, base()); err == nil {
			t.Errorf("%s (sides swapped): reported identical", tc.name)
		}
	}
}

// TestDifferentialCheckRunsEveryVariant pins the driver: a row whose last
// variant diverges from its reference fails, and the error names that
// variant.
func TestDifferentialCheckRunsEveryVariant(t *testing.T) {
	fixed := func(v float64) func(*Instance) (*outcome, error) {
		return func(*Instance) (*outcome, error) { return &outcome{values: []float64{v}}, nil }
	}
	row := differential("test-row", "", fixed(1), variant{"same", fixed(1)}, variant{"broken", fixed(2)})
	err := row.Check(&Instance{})
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("check = %v, want a divergence naming the broken variant", err)
	}
	if err := differential("test-row", "", fixed(1), variant{"same", fixed(1)}).Check(&Instance{}); err != nil {
		t.Fatalf("matching row reported %v", err)
	}
}
