// Package par provides the bounded worker pool underlying every parallel
// kernel in the repository: the all-pairs Dijkstra fan-out, the placement
// engine's preprocessing, the greedy candidate scans, and the experiment
// trial fan-out.
//
// The pool enforces the repo's determinism contract by construction: work
// items are identified by a dense index and workers write results only to
// caller-owned, index-disjoint slots, so the assembled output never depends
// on goroutine scheduling. Workers claim indices from one shared atomic
// counter, so which worker runs which index is up to the scheduler, and
// nothing the caller can observe depends on it. Do returns only after
// every item has completed.
package par

import (
	"sync"
	"sync/atomic"
	"time"

	"roadside/internal/obs"
)

// Do runs fn(i) for every i in [0, n) on at most workers goroutines and
// blocks until all calls return. With workers <= 1 (or n <= 1) it runs
// inline on the calling goroutine, which is the serial reference path that
// the parallel path must match bit-for-bit.
//
// fn must be safe for concurrent invocation with distinct arguments and
// must confine its writes to per-index state.
//
// The parallel path spawns workers goroutines that each claim the next
// unclaimed index from a shared counter until none is left, so an item
// costs one atomic add rather than a channel handoff, and at most workers
// calls of fn are ever in flight. Every fn call on that path runs on a
// spawned goroutine, never on the caller's: a panic in fn crashes the
// process instead of unwinding into a caller that might recover it (as
// net/http does per request) and carry on with half-written output.
//
// The parallel path reports one obs.Phase event ("par"/"do") per fan-out to
// the process observer; the serial path stays free of any observability
// cost so tight per-step loops pay nothing.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	start := time.Now()
	defer func() {
		obs.Default().Phase(obs.Phase{
			Component: "par", Name: "do",
			Items: n, Workers: workers,
			Start: start, Duration: time.Since(start),
		})
	}()
	var wg sync.WaitGroup
	var next atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// Chunks splits [0, n) into at most parts contiguous half-open ranges of
// near-equal size and returns their boundaries as (lo, hi) pairs. It is
// used to hand each scan worker a cache-friendly contiguous slice instead
// of interleaved items. parts and n of zero or less yield no chunks.
func Chunks(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	size := n / parts
	rem := n % parts
	lo := 0
	for c := 0; c < parts; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
