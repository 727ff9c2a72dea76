package serve

import (
	"container/list"
	"context"
	"net/http"
	"strings"
	"sync"
	"time"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/obs"
)

// Cache outcomes reported on the wire and counted in metrics.
const (
	CacheHit       = "hit"       // engine found in the LRU
	CacheMiss      = "miss"      // this request built the engine
	CacheCoalesced = "coalesced" // waited on another request's build
)

// engineCache is the heart of placement-as-a-service: a byte-budgeted LRU
// of immutable engines keyed by core.ProblemDigest, with singleflight
// coalescing. The entry map, the in-flight map, and the LRU share one
// mutex, so between "no cached engine" and "a flight exists for this
// digest" there is no window for a second builder: one build per digest,
// exactly, no matter how many requests race.
//
// Engines are immutable once published and entries only hold references,
// so eviction can never corrupt an in-flight solve — a request that
// obtained an engine keeps it alive through its solve regardless of what
// the LRU does.
//
// On top of the digest-keyed store sits the lineage layer: POST /v1/update
// evolves a cached engine through core.ApplyCopy, and the cache keeps
// exactly one entry per lineage — the latest sequence — reachable both by
// its full derived digest ("base@seq") and by its base digest. The
// superseded entry is removed when its successor is published, so a
// drifting problem occupies one engine's worth of budget, not one per
// update.
type engineCache struct {
	budget int64

	mu       sync.Mutex
	lru      *list.List // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	lineages map[string]*list.Element // base digest -> current entry of the lineage
	flights  map[string]*flight
	bytes    int64

	hits, misses, coalesced *obs.Counter
	evicted, builds         *obs.Counter
	buildErrors             *obs.Counter
	updates, unresolved     *obs.Counter
	staleRefs               *obs.Counter
	bytesG, entriesG        *obs.Gauge
	buildUS, updateUS       *obs.Histogram
}

// cacheEntry is one cached engine. All fields except mu are immutable
// after the entry is published into the maps; updates never mutate a
// published entry, they replace it (ApplyCopy, then re-key). mu serializes
// updaters of the entry's lineage: an updater holds it across
// apply-and-publish so two concurrent updates on one lineage cannot both
// derive from the same sequence.
type cacheEntry struct {
	digest string // full digest: base for seq 0, base@seq afterwards
	base   string // lineage root (== ProblemDigest of the original problem)
	seq    int
	eng    *core.Engine
	bytes  int64

	mu sync.Mutex
}

// flight is one in-progress engine build; waiters block on done.
type flight struct {
	done chan struct{}
	eng  *core.Engine
	err  error
}

func newEngineCache(budget int64, reg *obs.Registry) *engineCache {
	return &engineCache{
		budget:      budget,
		lru:         list.New(),
		entries:     map[string]*list.Element{},
		lineages:    map[string]*list.Element{},
		flights:     map[string]*flight{},
		hits:        reg.Counter("serve.cache.hit"),
		misses:      reg.Counter("serve.cache.miss"),
		coalesced:   reg.Counter("serve.cache.coalesced"),
		evicted:     reg.Counter("serve.cache.evicted"),
		builds:      reg.Counter("serve.engine.builds"),
		buildErrors: reg.Counter("serve.engine.build_errors"),
		updates:     reg.Counter("serve.cache.updates"),
		unresolved:  reg.Counter("serve.cache.unresolved"),
		staleRefs:   reg.Counter("serve.cache.stale"),
		bytesG:      reg.Gauge("serve.cache.bytes"),
		entriesG:    reg.Gauge("serve.cache.entries"),
		buildUS:     reg.Histogram("serve.engine.build_us", obs.DurationBucketsUS),
		updateUS:    reg.Histogram("serve.engine.update_us", obs.DurationBucketsUS),
	}
}

// Get returns the engine for digest, building it via build on a miss. The
// returned outcome says how the request was answered; it is what the
// response's cache field and the hit/miss/coalesced counters report, and
// every call lands in exactly one of the three counters — hit + miss +
// coalesced equals calls, whatever mix of successes, failures, and
// abandoned waits occurred.
//
// The build runs detached from the leader's context: a leader whose ctx
// expires mid-build returns its context error like an abandoned waiter,
// but the build itself keeps running and populates the cache for the
// requests that coalesced onto it (and for everyone after). Build errors
// are never cached.
func (c *engineCache) Get(ctx context.Context, digest string, build func() (*core.Engine, error)) (*core.Engine, string, error) {
	c.mu.Lock()
	if el, ok := c.entries[digest]; ok {
		c.lru.MoveToFront(el)
		eng := el.Value.(*cacheEntry).eng
		c.mu.Unlock()
		c.hits.Inc()
		return eng, CacheHit, nil
	}
	if fl, ok := c.flights[digest]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		select {
		case <-fl.done:
			return fl.eng, CacheCoalesced, fl.err
		case <-ctx.Done():
			return nil, CacheCoalesced, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[digest] = fl
	c.mu.Unlock()
	// This request is the miss whether or not the build succeeds or the
	// leader lives to see the result.
	c.misses.Inc()

	go func() {
		start := time.Now()
		eng, err := build()
		c.buildUS.Observe(float64(time.Since(start).Microseconds()))

		c.mu.Lock()
		delete(c.flights, digest)
		if err == nil {
			c.insertLocked(&cacheEntry{digest: digest, base: digest, eng: eng, bytes: eng.ArenaBytes()})
		}
		c.mu.Unlock()
		if err != nil {
			c.buildErrors.Inc()
		} else {
			c.builds.Inc()
		}
		fl.eng, fl.err = eng, err
		close(fl.done)
	}()

	select {
	case <-fl.done:
		return fl.eng, CacheMiss, fl.err
	case <-ctx.Done():
		return nil, CacheMiss, ctx.Err()
	}
}

// Resolve answers a by-reference lookup: ref is either a base digest
// (resolving to the lineage's current entry, whatever its sequence) or an
// explicit "base@seq" (resolving only if the lineage currently sits at
// exactly that sequence). There is nothing to build from — an unknown base
// is a 404 and a sequence mismatch a 409, so a client racing an updater
// observes the old engine, the new engine, or a stale error, never a
// blend.
func (c *engineCache) Resolve(ref string) (*core.Engine, string, *APIError) {
	base, wantSeq, err := core.SplitDigest(ref)
	if err != nil {
		c.unresolved.Inc()
		return nil, "", errorf(http.StatusNotFound, CodeUnknownDigest, "digest ref %q: %v", ref, err)
	}
	pinned := strings.IndexByte(ref, '@') >= 0

	c.mu.Lock()
	el, ok := c.lineages[base]
	if !ok {
		c.mu.Unlock()
		c.unresolved.Inc()
		return nil, "", errorf(http.StatusNotFound, CodeUnknownDigest,
			"no cached engine for digest %q; send the full problem once to create it", ref)
	}
	ent := el.Value.(*cacheEntry)
	if pinned && ent.seq != wantSeq {
		c.mu.Unlock()
		c.staleRefs.Inc()
		return nil, "", errorf(http.StatusConflict, CodeStaleDigest,
			"digest %q is stale: lineage %s is at sequence %d", ref, base, ent.seq)
	}
	c.lru.MoveToFront(el)
	eng, digest := ent.eng, ent.digest
	c.mu.Unlock()
	c.hits.Inc()
	return eng, digest, nil
}

// Update applies ops to the current engine of ref's lineage and publishes
// the result as the lineage's next sequence. ref may pin a sequence
// ("base@seq"), turning the update into a compare-and-swap that fails with
// stale_digest if another update got there first; a bare base digest
// always updates whatever is current.
//
// The engine evolves by ApplyCopy — the superseded engine is untouched, so
// solves that already resolved it finish on consistent arenas — and the
// new engine inherits its standalone gains, so by-reference lazy solves
// skip their init scan. Per-lineage serialization comes from the
// entry mutex: an updater holds it from resolve to publish, and a loser of
// that race re-resolves (or fails its pin) rather than deriving two
// engines from one sequence.
func (c *engineCache) Update(ref string, ops []core.FlowUpdate) (*cacheEntry, []graph.NodeID, *APIError) {
	base, wantSeq, err := core.SplitDigest(ref)
	if err != nil {
		c.unresolved.Inc()
		return nil, nil, errorf(http.StatusNotFound, CodeUnknownDigest, "digest ref %q: %v", ref, err)
	}
	pinned := strings.IndexByte(ref, '@') >= 0

	var ent *cacheEntry
	for {
		c.mu.Lock()
		el, ok := c.lineages[base]
		if !ok {
			c.mu.Unlock()
			c.unresolved.Inc()
			return nil, nil, errorf(http.StatusNotFound, CodeUnknownDigest,
				"no cached engine for digest %q; send the full problem once to create it", ref)
		}
		ent = el.Value.(*cacheEntry)
		c.mu.Unlock()

		ent.mu.Lock()
		// Recheck under the entry lock: another updater may have replaced
		// this entry while we waited. An entry evicted meanwhile is fine —
		// the engine reference is still valid and publishing re-creates the
		// lineage.
		c.mu.Lock()
		cur, ok := c.lineages[base]
		current := !ok || cur.Value.(*cacheEntry) == ent
		c.mu.Unlock()
		if current {
			break
		}
		ent.mu.Unlock()
	}
	defer ent.mu.Unlock()

	if pinned && ent.seq != wantSeq {
		c.staleRefs.Inc()
		return nil, nil, errorf(http.StatusConflict, CodeStaleDigest,
			"digest %q is stale: lineage %s is at sequence %d", ref, base, ent.seq)
	}

	start := time.Now()
	eng, touched, err := ent.eng.ApplyCopy(ops)
	if err != nil {
		return nil, nil, errorf(http.StatusUnprocessableEntity, CodeBadUpdate, "%v", err)
	}
	c.updateUS.Observe(float64(time.Since(start).Microseconds()))

	next := &cacheEntry{
		digest: core.DeriveDigest(base, ent.seq+1),
		base:   base,
		seq:    ent.seq + 1,
		eng:    eng,
		bytes:  eng.ArenaBytes(),
	}
	c.mu.Lock()
	// Drop the superseded entry (if eviction has not already) and any
	// defensive leftover under the new digest, then publish.
	if el, ok := c.entries[ent.digest]; ok && el.Value.(*cacheEntry) == ent {
		c.removeLocked(el, false)
	}
	if el, ok := c.entries[next.digest]; ok {
		c.removeLocked(el, false)
	}
	c.insertLocked(next)
	c.mu.Unlock()
	c.updates.Inc()
	return next, touched, nil
}

// insertLocked adds a freshly built or updated engine and evicts from the
// LRU tail until the byte budget holds again. The newest entry is never
// evicted — a cache whose budget is below one engine still serves repeat
// queries for the latest problem — so the loop stops at length one.
func (c *engineCache) insertLocked(ent *cacheEntry) {
	el := c.lru.PushFront(ent)
	c.entries[ent.digest] = el
	c.lineages[ent.base] = el
	c.bytes += ent.bytes
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.removeLocked(c.lru.Back(), true)
	}
	c.bytesG.Set(float64(c.bytes))
	c.entriesG.Set(float64(c.lru.Len()))
}

// removeLocked detaches an entry from the LRU, the digest map, and — when
// it is the lineage's current entry — the lineage map. evict says whether
// this removal counts against serve.cache.evicted (budget pressure) or is
// a silent replacement by a successor entry.
func (c *engineCache) removeLocked(el *list.Element, evict bool) {
	ent := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.digest)
	if cur, ok := c.lineages[ent.base]; ok && cur == el {
		delete(c.lineages, ent.base)
	}
	c.bytes -= ent.bytes
	if evict {
		c.evicted.Inc()
	}
	c.bytesG.Set(float64(c.bytes))
	c.entriesG.Set(float64(c.lru.Len()))
}

// Stats returns the cache's current occupancy (for /healthz).
func (c *engineCache) Stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len(), c.bytes
}
