package model_test

import (
	"hash/fnv"
	"math"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/graph"
	"roadside/internal/model"
)

// frozenFieldDigest is the FNV-64a hash of every Float64bits of
// DefaultResistance().Field over the fixtures of fieldFixtures. It was
// taken from the per-node CholeskySolve loop; the envelope factorization
// and one-sided unit solves must reproduce it bit for bit. A deliberate
// change to the field's arithmetic refreezes it and says why.
const frozenFieldDigest uint64 = 0x1903a9f9ed9e6cd8

// fieldFixture is one Seattle-size resistance field input.
type fieldFixture struct {
	seed  int64
	g     *graph.Graph
	shops []graph.NodeID
}

// fieldFixtures returns Seattle-config cities for seeds 1-3, each with the
// shop sets {0}, {n/2} and {1, n-1}: realistic grid-like systems of ~440
// interior nodes whose envelope the dense path actually exploits.
func fieldFixtures(tb testing.TB) []fieldFixture {
	tb.Helper()
	var out []fieldFixture
	for seed := int64(1); seed <= 3; seed++ {
		city, err := citygen.Generate(citygen.SeattleConfig(), seed)
		if err != nil {
			tb.Fatal(err)
		}
		n := graph.NodeID(city.Graph.NumNodes())
		for _, shops := range [][]graph.NodeID{{0}, {n / 2}, {1, n - 1}} {
			out = append(out, fieldFixture{seed: seed, g: city.Graph, shops: shops})
		}
	}
	return out
}

// TestFrozenResistanceField pins the dense resistance field on realistic
// cities at the bit level.
func TestFrozenResistanceField(t *testing.T) {
	m := model.DefaultResistance()
	h := fnv.New64a()
	var buf [8]byte
	for _, fx := range fieldFixtures(t) {
		res, err := m.Field(fx.g, fx.shops, nil)
		if err != nil {
			t.Fatalf("seed %d shops %v: %v", fx.seed, fx.shops, err)
		}
		for _, r := range res {
			bits := math.Float64bits(r)
			for k := range buf {
				buf[k] = byte(bits >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != frozenFieldDigest {
		t.Fatalf("resistance field digest = %#016x, want %#016x", got, frozenFieldDigest)
	}
}

// BenchmarkResistanceField times the dense resistance field on the
// 441-node Seattle city with one shop, the model.prepare_ms.resistance
// layer of the plan-offline workload.
func BenchmarkResistanceField(b *testing.B) {
	city, err := citygen.Generate(citygen.SeattleConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := model.DefaultResistance()
	shops := []graph.NodeID{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Field(city.Graph, shops, nil); err != nil {
			b.Fatal(err)
		}
	}
}
