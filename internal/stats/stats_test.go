package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
}

func TestSummarizeEdge(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty: %v", err)
	}
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean != 42 || s.Std != 0 || s.Median != 42 || s.CI95() != 0 {
		t.Errorf("singleton = %+v", s)
	}
	odd, err := Summarize([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if odd.Median != 2 {
		t.Errorf("odd median = %v", odd.Median)
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := 0; stream < 1000; stream++ {
		s := DeriveSeed(42, stream)
		if seen[s] {
			t.Fatalf("seed collision at stream %d", stream)
		}
		seen[s] = true
	}
	// Deterministic.
	if DeriveSeed(42, 7) != DeriveSeed(42, 7) {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(42, 7) == DeriveSeed(43, 7) {
		t.Error("root seed ignored")
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(1, 2), NewRand(1, 2)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand not deterministic")
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mean := range []float64{0.5, 3, 20, 150} {
		const n = 20000
		var sum, ss float64
		for i := 0; i < n; i++ {
			x := float64(Poisson(rng, mean))
			sum += x
			ss += x * x
		}
		m := sum / n
		v := ss/n - m*m
		if math.Abs(m-mean) > 0.05*mean+0.1 {
			t.Errorf("mean %v: sample mean %v", mean, m)
		}
		if math.Abs(v-mean) > 0.15*mean+0.2 {
			t.Errorf("mean %v: sample var %v", mean, v)
		}
	}
	if Poisson(rng, 0) != 0 || Poisson(rng, -1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 8000; i++ {
		idx := WeightedChoice(rng, weights)
		if idx < 0 || idx > 2 {
			t.Fatalf("index %d out of range", idx)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Error("zero-weight index drawn")
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("ratio = %v, want ~3", ratio)
	}
	if WeightedChoice(rng, []float64{0, 0}) != -1 {
		t.Error("all-zero weights should return -1")
	}
	if WeightedChoice(rng, nil) != -1 {
		t.Error("nil weights should return -1")
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64 with seed 0.
	state := uint64(0)
	var out uint64
	state, out = SplitMix64(state)
	if out != 0xe220a8397b1dcdaf {
		t.Errorf("first output = %#x", out)
	}
	_, out = SplitMix64(state)
	if out != 0x6e789e6aa1b965f4 {
		t.Errorf("second output = %#x", out)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},                         // exact fast path
		{math.Inf(1), math.Inf(1), 1e-9, true},  // equal infinities
		{math.Inf(1), math.Inf(-1), 1e9, false}, // opposite infinities
		{1, 1 + 1e-12, 1e-9, true},              // within tolerance
		{1, 1.1, 1e-9, false},                   // outside tolerance
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true},  // relative scaling
		{0, 1e-12, 1e-9, true},                  // absolute near zero
		{math.NaN(), math.NaN(), 1e9, false},    // NaN never equal
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%v, %v, %v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}
