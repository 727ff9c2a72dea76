// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics over trial results, deterministic
// seed derivation so every figure is bit-reproducible, and discrete
// samplers for the demand generators. It also holds the SPD solvers of the
// resistance objective (spd.go): an envelope-aware Cholesky factorization
// with one-sided unit solves for the inverse diagonal, conjugate gradients
// for large systems, and a Gauss-Jordan inverse as the test oracle.
package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// ErrEmpty is returned by summaries of empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// ApproxEqual reports whether a and b agree within tol, scaled by the
// larger magnitude so the tolerance is relative for large values and
// absolute near zero. It is the approved helper for floating-point
// equality (the floatcmp lint check flags raw == / != elsewhere); the
// exact fast path makes equal infinities compare equal, which no finite
// tolerance can.
func ApproxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if math.IsInf(diff, 0) {
		return false
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*(1+scale)
}

// SplitMix64 advances the splitmix64 generator once, returning the next
// state and output. It is the standard way to derive independent seeds.
func SplitMix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// DeriveSeed deterministically derives the stream-th child seed from a root
// seed. The construction is collision-free per root: multiplying the stream
// by an odd constant is a bijection mod 2^64 and the splitmix64 finalizer
// is bijective, so distinct streams always map to distinct seeds.
func DeriveSeed(root int64, stream int) int64 {
	s := uint64(root) ^ (uint64(stream)+1)*0x9e3779b97f4a7c15
	_, out := SplitMix64(s)
	_, out = SplitMix64(out)
	return int64(out)
}

// NewRand returns a deterministic *rand.Rand for the given root seed and
// stream.
func NewRand(root int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(root, stream)))
}

// Poisson samples a Poisson random variate with the given mean using
// inversion for small means and the normal approximation for large ones.
func Poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		// Normal approximation, clamped at zero.
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// WeightedChoice returns an index in [0, len(weights)) drawn proportionally
// to the weights, or -1 when all weights are non-positive.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	x := rng.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
