package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoCoversEveryIndexOnce(t *testing.T) {
	type run struct{ n, workers int }
	runs := []run{{10_000, 2}, {10_000, 64}}
	for _, workers := range []int{0, 1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 100} {
			runs = append(runs, run{n, workers})
		}
	}
	for _, r := range runs {
		counts := make([]int32, r.n)
		Do(r.n, r.workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", r.workers, r.n, i, c)
			}
		}
	}
}

// TestDoBoundsConcurrency checks that the number of fn calls in flight
// never exceeds workers. Each call yields while it holds its slot, so the
// workers overlap whenever the scheduler lets them.
func TestDoBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 64} {
		for _, n := range []int{1, 2, 7, 100, 1_000} {
			var inFlight, peak atomic.Int32
			Do(n, workers, func(int) {
				cur := inFlight.Add(1)
				for {
					old := peak.Load()
					if cur <= old || peak.CompareAndSwap(old, cur) {
						break
					}
				}
				runtime.Gosched()
				inFlight.Add(-1)
			})
			bound := int32(min(max(workers, 1), n))
			if got := peak.Load(); got > bound {
				t.Fatalf("workers=%d n=%d: %d calls in flight", workers, n, got)
			}
		}
	}
}

func TestDoDeterministicAssembly(t *testing.T) {
	n := 200
	want := make([]int, n)
	Do(n, 1, func(i int) { want[i] = i * i })
	got := make([]int, n)
	Do(n, 8, func(i int) { got[i] = i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: parallel %d != serial %d", i, got[i], want[i])
		}
	}
}

func TestChunksPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 97} {
		for _, parts := range []int{0, 1, 2, 5, 200} {
			chunks := Chunks(n, parts)
			next := 0
			for _, c := range chunks {
				if c[0] != next {
					t.Fatalf("n=%d parts=%d: chunk starts at %d, want %d", n, parts, c[0], next)
				}
				if c[1] <= c[0] {
					t.Fatalf("n=%d parts=%d: empty chunk %v", n, parts, c)
				}
				next = c[1]
			}
			if next != n && n > 0 && parts > 0 {
				t.Fatalf("n=%d parts=%d: chunks cover [0,%d), want [0,%d)", n, parts, next, n)
			}
			if n > 0 && parts > 0 && len(chunks) > parts {
				t.Fatalf("n=%d parts=%d: %d chunks", n, parts, len(chunks))
			}
		}
	}
}

// spin stands in for a fine-grained work item of about 1 µs: the engine's
// per-flow detour and gain passes fan out ten thousand items of that size.
func spin(i int) uint64 {
	x := uint64(i) | 1
	for k := 0; k < 900; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkDoFineGrained times one fan-out of 10,000 items of about 1 µs
// each on two workers, the shape where the per-item dispatch cost shows.
func BenchmarkDoFineGrained(b *testing.B) {
	const n = 10_000
	out := make([]uint64, n)
	for k := 0; k < b.N; k++ {
		Do(n, 2, func(i int) { out[i] = spin(i) })
	}
}
