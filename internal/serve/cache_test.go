package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadside/internal/core"
	"roadside/internal/obs"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// testEngine builds a small real engine for cache accounting tests.
func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(testutil.Fig4Problem(t, utility.Linear{D: 10}))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// TestCacheCoalescesConcurrentBuilds is the deterministic singleflight
// test: the build function blocks until every waiter has registered, so
// exactly one build serving 16 callers is forced, not just likely.
func TestCacheCoalescesConcurrentBuilds(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)

	var builds atomic.Int32
	entered := make(chan struct{})
	release := make(chan struct{})
	build := func() (*core.Engine, error) {
		builds.Add(1)
		close(entered) // a second call would close twice and panic — that IS the test
		<-release
		return eng, nil
	}

	const waiters = 15
	type res struct {
		eng     *core.Engine
		outcome string
		err     error
	}
	results := make(chan res, waiters+1)
	go func() {
		e, o, err := c.Get(context.Background(), "d1", build)
		results <- res{e, o, err}
	}()
	<-entered // leader is inside build; the flight is registered
	for i := 0; i < waiters; i++ {
		go func() {
			e, o, err := c.Get(context.Background(), "d1", func() (*core.Engine, error) {
				t.Error("waiter ran its own build")
				return nil, nil
			})
			results <- res{e, o, err}
		}()
	}
	waitFor(t, "all waiters to coalesce", func() bool {
		return counter(reg, "serve.cache.coalesced") == waiters
	})
	close(release)

	var misses, coalesced int
	for i := 0; i < waiters+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.eng != eng {
			t.Fatal("caller got a different engine")
		}
		switch r.outcome {
		case CacheMiss:
			misses++
		case CacheCoalesced:
			coalesced++
		default:
			t.Fatalf("outcome %q", r.outcome)
		}
	}
	if builds.Load() != 1 || misses != 1 || coalesced != waiters {
		t.Fatalf("builds=%d misses=%d coalesced=%d, want 1/1/%d", builds.Load(), misses, coalesced, waiters)
	}
	if got := counter(reg, "serve.engine.builds"); got != 1 {
		t.Errorf("serve.engine.builds = %d, want 1", got)
	}

	// The built engine is now cached: the next Get is a plain hit.
	if _, o, err := c.Get(context.Background(), "d1", build); err != nil || o != CacheHit {
		t.Fatalf("post-flight Get = %q err %v, want hit", o, err)
	}
}

// TestCacheWaiterAbandonsOnCancel: a coalesced waiter whose context dies
// returns immediately with the context error while the leader's build
// completes and is cached for everyone else.
func TestCacheWaiterAbandonsOnCancel(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)

	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, err := c.Get(context.Background(), "d1", func() (*core.Engine, error) {
			close(entered)
			<-release
			return eng, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Get(ctx, "d1", nil); err != context.Canceled {
		t.Fatalf("cancelled waiter = %v, want context.Canceled", err)
	}

	close(release)
	waitFor(t, "leader to finish", func() bool { return counter(reg, "serve.engine.builds") == 1 })
	if _, o, err := c.Get(context.Background(), "d1", nil); err != nil || o != CacheHit {
		t.Fatalf("Get after abandoned wait = %q err %v, want hit", o, err)
	}
}

// TestCacheLRUEvictsOldestFirst pins the eviction order including the
// MoveToFront on hit: touching an old entry saves it from eviction.
func TestCacheLRUEvictsOldestFirst(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t)
	c := newEngineCache(2*eng.ArenaBytes(), reg) // room for exactly two

	var buildCalls atomic.Int32
	build := func() (*core.Engine, error) { buildCalls.Add(1); return eng, nil }
	ctx := context.Background()

	mustGet := func(digest, wantOutcome string) {
		t.Helper()
		if _, o, err := c.Get(ctx, digest, build); err != nil || o != wantOutcome {
			t.Fatalf("Get(%s) = %q err %v, want %q", digest, o, err, wantOutcome)
		}
	}
	mustGet("a", CacheMiss)
	mustGet("b", CacheMiss)
	mustGet("a", CacheHit) // a is now most recent; b is the LRU tail
	mustGet("c", CacheMiss)
	if got := counter(reg, "serve.cache.evicted"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
	mustGet("a", CacheHit)  // survived because it was touched
	mustGet("b", CacheMiss) // evicted: rebuilt
	if entries, bytes := c.Stats(); entries != 2 || bytes != 2*eng.ArenaBytes() {
		t.Fatalf("Stats = (%d, %d), want (2, %d)", entries, bytes, 2*eng.ArenaBytes())
	}
	if buildCalls.Load() != 4 {
		t.Fatalf("buildCalls = %d, want 4 (a, b, c, b again)", buildCalls.Load())
	}
}

// TestCacheUpdateChargesChildInFull pins the lineage accounting that
// copy-on-write by page relies on: Update drops the superseded entry, so
// the gain pages a child shares with its parent belong to no other cached
// engine, and the child is charged its full ArenaBytes — the cache holds
// one entry whose charge is exactly the child's arena.
func TestCacheUpdateChargesChildInFull(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	p := testutil.RandomProblem(t, rand.New(rand.NewSource(5)), 300, 40, 4, utility.Linear{D: 60})
	eng, err := core.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(context.Background(), "base", func() (*core.Engine, error) { return eng, nil }); err != nil {
		t.Fatal(err)
	}
	prev := "base"
	for seq := 1; seq <= 3; seq++ {
		ops := []core.FlowUpdate{{Op: core.OpSetVolume, Flow: seq, Volume: float64(10 * seq)}}
		if seq == 3 {
			ops = append(ops, core.FlowUpdate{Op: core.OpRemoveFlow, Flow: 0})
		}
		next, _, apiErr := c.Update("base", ops)
		if apiErr != nil {
			t.Fatalf("update %d: %v", seq, apiErr)
		}
		c.mu.Lock()
		_, stale := c.entries[prev]
		cur := c.lineages["base"].Value.(*cacheEntry)
		c.mu.Unlock()
		if stale {
			t.Fatalf("update %d: superseded entry %q still cached", seq, prev)
		}
		if cur != next || next.bytes != next.eng.ArenaBytes() {
			t.Fatalf("update %d: lineage entry %p charged %d, want %p charged its ArenaBytes %d",
				seq, cur, cur.bytes, next, next.eng.ArenaBytes())
		}
		if entries, bytes := c.Stats(); entries != 1 || bytes != next.eng.ArenaBytes() {
			t.Fatalf("update %d: Stats = (%d, %d), want (1, %d)", seq, entries, bytes, next.eng.ArenaBytes())
		}
		prev = next.digest
	}
}

// TestCacheKeepsNewestUnderTinyBudget: a budget below one engine still
// retains the most recent entry, so repeat queries for the latest problem
// stay hits.
func TestCacheKeepsNewestUnderTinyBudget(t *testing.T) {
	reg := obs.NewRegistry()
	eng := testEngine(t)
	c := newEngineCache(1, reg)
	build := func() (*core.Engine, error) { return eng, nil }
	ctx := context.Background()

	if _, o, _ := c.Get(ctx, "x", build); o != CacheMiss {
		t.Fatalf("first Get = %q", o)
	}
	if entries, _ := c.Stats(); entries != 1 {
		t.Fatalf("entries = %d, want the newest retained", entries)
	}
	if _, o, _ := c.Get(ctx, "x", build); o != CacheHit {
		t.Fatalf("repeat Get = %q, want hit", o)
	}
	if _, o, _ := c.Get(ctx, "y", build); o != CacheMiss {
		t.Fatalf("Get(y) = %q", o)
	}
	if entries, _ := c.Stats(); entries != 1 {
		t.Fatalf("entries = %d after second insert, want 1", entries)
	}
	if got := counter(reg, "serve.cache.evicted"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
}

// TestCacheBuildErrorNotCached: failures propagate to the caller and are
// retried on the next request, never stored.
func TestCacheBuildErrorNotCached(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)
	boom := errors.New("boom")

	fail := true
	build := func() (*core.Engine, error) {
		if fail {
			return nil, boom
		}
		return eng, nil
	}
	if _, _, err := c.Get(context.Background(), "d", build); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := counter(reg, "serve.engine.build_errors"); got != 1 {
		t.Errorf("build_errors = %d, want 1", got)
	}
	if got := counter(reg, "serve.engine.builds"); got != 0 {
		t.Errorf("builds = %d after failure, want 0", got)
	}
	fail = false
	if _, o, err := c.Get(context.Background(), "d", build); err != nil || o != CacheMiss {
		t.Fatalf("retry = %q err %v, want clean miss", o, err)
	}
}

// TestCacheConcurrentMixedDigests hammers the cache directly from many
// goroutines over several digests (run with -race): every caller gets a
// non-nil engine and the entry count never exceeds the distinct digests.
func TestCacheConcurrentMixedDigests(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)
	digests := []string{"a", "b", "c", "d"}

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, _, err := c.Get(context.Background(), digests[(i+j)%len(digests)],
					func() (*core.Engine, error) { return eng, nil })
				if err != nil || got == nil {
					t.Errorf("Get: engine %v err %v", got, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if entries, _ := c.Stats(); entries > len(digests) {
		t.Fatalf("entries = %d, more than %d distinct digests", entries, len(digests))
	}
	if builds := counter(reg, "serve.engine.builds"); builds != int64(len(digests)) {
		t.Fatalf("builds = %d, want exactly %d (one per digest)", builds, len(digests))
	}
}

// TestCacheLeaderDetachedBuild pins the detach fix: a leader whose context
// expires mid-build gets its context error back, but the build it started
// keeps running, serves the waiters that coalesced onto it, and lands in
// the cache for everyone after. Before the fix the build ran on the
// leader's call stack, so an impatient leader still paid for the whole
// build before learning its deadline had passed.
func TestCacheLeaderDetachedBuild(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)

	entered := make(chan struct{})
	release := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	leader := make(chan error, 1)
	go func() {
		_, outcome, err := c.Get(ctx, "slow", func() (*core.Engine, error) {
			close(entered)
			<-release
			return eng, nil
		})
		if outcome != CacheMiss {
			t.Errorf("abandoning leader outcome = %q, want miss", outcome)
		}
		leader <- err
	}()
	<-entered
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want deadline exceeded", err)
	}

	// A patient waiter arriving after the leader gave up still coalesces
	// onto the orphaned flight and is served by it.
	waiter := make(chan error, 1)
	go func() {
		got, outcome, err := c.Get(context.Background(), "slow", nil)
		if err == nil && (got != eng || outcome != CacheCoalesced) {
			t.Errorf("waiter got engine %p outcome %q, want coalesced %p", got, outcome, eng)
		}
		waiter <- err
	}()
	waitFor(t, "waiter to coalesce", func() bool {
		return counter(reg, "serve.cache.coalesced") == 1
	})
	close(release)
	if err := <-waiter; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "detached build to land", func() bool {
		return counter(reg, "serve.engine.builds") == 1
	})
	if _, o, err := c.Get(context.Background(), "slow", nil); err != nil || o != CacheHit {
		t.Fatalf("Get after detached build = %q err %v, want hit", o, err)
	}
	// The abandoned leader was still this digest's miss.
	if got := counter(reg, "serve.cache.miss"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestCacheCounterConservation pins the accounting contract: every Get
// lands in exactly one of hit/miss/coalesced — including Gets whose build
// fails, which a previous version never counted as misses — and every miss
// produces exactly one build attempt (success or error).
func TestCacheCounterConservation(t *testing.T) {
	reg := obs.NewRegistry()
	c := newEngineCache(1<<30, reg)
	eng := testEngine(t)
	ctx := context.Background()

	ok := func() (*core.Engine, error) { return eng, nil }
	boom := errors.New("boom")
	fail := func() (*core.Engine, error) { return nil, boom }

	calls := 0
	get := func(digest string, build func() (*core.Engine, error)) {
		calls++
		//lint:ignore errdrop failures are part of the accounting under test
		_, _, _ = c.Get(ctx, digest, build)
	}
	get("a", ok)   // miss, built
	get("a", ok)   // hit
	get("b", fail) // miss, build error — must still count as a miss
	get("b", fail) // miss again: errors are never cached
	get("b", ok)   // miss, built
	get("a", ok)   // hit

	// One coalesced pair: leader blocks until the waiter has joined.
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		//lint:ignore errdrop accounting test
		_, _, _ = c.Get(ctx, "c", func() (*core.Engine, error) {
			close(entered)
			<-release
			return eng, nil
		})
		done <- struct{}{}
	}()
	<-entered
	go func() {
		//lint:ignore errdrop accounting test
		_, _, _ = c.Get(ctx, "c", nil)
		done <- struct{}{}
	}()
	waitFor(t, "waiter to coalesce", func() bool {
		return counter(reg, "serve.cache.coalesced") == 1
	})
	close(release)
	<-done
	<-done
	calls += 2

	hits := counter(reg, "serve.cache.hit")
	misses := counter(reg, "serve.cache.miss")
	coalesced := counter(reg, "serve.cache.coalesced")
	if hits+misses+coalesced != int64(calls) {
		t.Fatalf("hit %d + miss %d + coalesced %d = %d, want every Get counted once (%d)",
			hits, misses, coalesced, hits+misses+coalesced, calls)
	}
	if hits != 2 || misses != 5 || coalesced != 1 {
		t.Errorf("hit/miss/coalesced = %d/%d/%d, want 2/5/1 (a, b x3, c leader)", hits, misses, coalesced)
	}
	builds := counter(reg, "serve.engine.builds")
	buildErrors := counter(reg, "serve.engine.build_errors")
	if builds+buildErrors != misses {
		t.Fatalf("builds %d + build_errors %d != misses %d: a miss escaped without a build attempt",
			builds, buildErrors, misses)
	}
}
