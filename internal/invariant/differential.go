package invariant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/serve"
	"roadside/internal/stats"
)

// The differential rows: each fast path against its fresh reference, one
// register call per row. An identity check is one more row.
func init() {
	register(differential("parallel-identity",
		"engine arenas and greedy placements are bit-identical across worker counts (1 vs 2 vs 8)",
		engineAt(1), variant{"workers=2", engineAt(2)}, variant{"workers=8", engineAt(8)}))
	register(differential("many-to-many-identity",
		"ManyToMany rectangles are Float64bits-identical to per-destination Dijkstra on instance-seeded query sets",
		m2mDijkstra, variant{"rect workers=1", m2mRect(1)}, variant{"rect workers=2", m2mRect(2)},
		variant{"rect workers=8", m2mRect(8)}, variant{"grouped workers=1", m2mGrouped(1)},
		variant{"grouped workers=4", m2mGrouped(4)}, variant{"grouped workers=8", m2mGrouped(8)}))
	register(differential("serve-identity",
		"serving a placement through an in-process HTTP server (miss then cache hit) equals calling the engine directly, bit-for-bit",
		serveDirect, variant{"/v1/place miss then hit", servePlace}))
	register(differential("batch-identity",
		"a /v1/batch response is item-for-item bit-identical to sequential /v1/place calls across all four algorithms at mixed budgets",
		batchSequential, variant{"/v1/batch", batchServed}))
	register(differential("delta-identity",
		"applying flow updates (volume drift, add, remove) by copy, in one batch or split across a child and a grandchild, plus a warm-started re-solve, is bit-identical to rebuilding the engine from scratch and leaves every receiver untouched",
		deltaFresh, variant{"ApplyCopy", deltaApplied(1)}, variant{"ApplyCopy in two generations", deltaApplied(2)}))
}

// outcome is what a row's reference and each of its variants produce for
// one instance. Slot i of a field means the same thing on every side.
type outcome struct {
	fingerprints []uint64
	placements   []*core.Placement
	values       []float64
}

// variant is one implementation a row holds to its reference.
type variant struct {
	name string
	run  func(*Instance) (*outcome, error)
}

// differential is one "implementation ≡ fresh reference" row: the check
// runs the reference and every variant on the instance and requires each
// variant's outcome to equal the reference's. Checks only one row needs
// (cache outcomes, receiver immutability, response envelopes) are error
// returns inside that row's functions.
func differential(name, doc string, reference func(*Instance) (*outcome, error), variants ...variant) Invariant {
	return Invariant{Name: name, Doc: doc, Check: func(inst *Instance) error {
		want, err := reference(inst)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		for _, v := range variants {
			got, err := v.run(inst)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if err := sameOutcome(want, got); err != nil {
				return fmt.Errorf("%s diverges from the reference: %w", v.name, err)
			}
		}
		return nil
	}}
}

// sameOutcome compares fingerprints exactly, placements by
// core.SamePlacement and values by math.Float64bits (so +0 and -0 differ,
// and so do two NaN payloads).
func sameOutcome(want, got *outcome) error {
	if len(got.fingerprints) != len(want.fingerprints) {
		return fmt.Errorf("%d fingerprints, want %d", len(got.fingerprints), len(want.fingerprints))
	}
	for i, w := range want.fingerprints {
		if got.fingerprints[i] != w {
			return fmt.Errorf("fingerprint %d: %x, want %x", i, got.fingerprints[i], w)
		}
	}
	if len(got.placements) != len(want.placements) {
		return fmt.Errorf("%d placements, want %d", len(got.placements), len(want.placements))
	}
	for i, w := range want.placements {
		if err := core.SamePlacement(w, got.placements[i]); err != nil {
			return fmt.Errorf("placement %d: %w", i, err)
		}
	}
	if len(got.values) != len(want.values) {
		return fmt.Errorf("%d values, want %d", len(got.values), len(want.values))
	}
	for i, w := range want.values {
		if math.Float64bits(got.values[i]) != math.Float64bits(w) {
			return fmt.Errorf("value %d: %v, want %v: not bit-identical", i, got.values[i], w)
		}
	}
	return nil
}

// solvedOutcome is e's fingerprint and every core.Solvers() placement.
func solvedOutcome(e *core.Engine, workers int) (*outcome, error) {
	out := &outcome{fingerprints: []uint64{e.Fingerprint()}}
	for _, sv := range core.Solvers() {
		pl, err := sv.SolveWorkers(e, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sv.Name, err)
		}
		out.placements = append(out.placements, pl)
	}
	return out, nil
}

// engineAt builds and solves with the given worker count.
func engineAt(workers int) func(*Instance) (*outcome, error) {
	return func(inst *Instance) (*outcome, error) {
		e, err := core.NewEngineWorkers(inst.Problem, workers)
		if err != nil {
			return nil, err
		}
		return solvedOutcome(e, workers)
	}
}

// m2mQuery draws the many-to-many query from the instance seed: one group
// per target over every source (the rectangle), then one per target over a
// seed-drawn prefix of the sources (the grouped form the engine consumes).
func m2mQuery(inst *Instance) (sources, targets []graph.NodeID, groups []graph.M2MGroup) {
	n := inst.Problem.Graph.NumNodes()
	r := stats.NewRand(inst.Seed, 31)
	draw := func(count int) []graph.NodeID {
		ids := make([]graph.NodeID, count)
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(n))
		}
		return ids
	}
	sources, targets = draw(1+r.Intn(n)), draw(1+r.Intn(1+n/2))
	for _, tgt := range targets {
		groups = append(groups, graph.M2MGroup{Target: tgt, Sources: sources})
	}
	for _, tgt := range targets {
		groups = append(groups, graph.M2MGroup{Target: tgt, Sources: sources[:1+r.Intn(len(sources))]})
	}
	return sources, targets, groups
}

// m2mDijkstra answers the query with one shortest-path tree per target.
func m2mDijkstra(inst *Instance) (*outcome, error) {
	g := inst.Problem.Graph
	_, _, groups := m2mQuery(inst)
	out := &outcome{}
	for _, grp := range groups {
		tree, err := g.ShortestTo(grp.Target)
		if err != nil {
			return nil, err
		}
		for _, s := range grp.Sources {
			out.values = append(out.values, tree.Dist(s))
		}
	}
	return out, nil
}

// m2mRect answers from one rectangle; group sources are prefixes of its rows.
func m2mRect(workers int) func(*Instance) (*outcome, error) {
	return func(inst *Instance) (*outcome, error) {
		sources, targets, groups := m2mQuery(inst)
		rect, err := inst.Problem.Graph.ManyToMany(sources, targets, workers)
		if err != nil {
			return nil, err
		}
		out := &outcome{}
		for gi, grp := range groups {
			for k := range grp.Sources {
				out.values = append(out.values, rect.Dist(k, gi%len(targets)))
			}
		}
		return out, nil
	}
}

// m2mGrouped answers the query with ManyToManyGrouped.
func m2mGrouped(workers int) func(*Instance) (*outcome, error) {
	return func(inst *Instance) (*outcome, error) {
		_, _, groups := m2mQuery(inst)
		cols, err := inst.Problem.Graph.ManyToManyGrouped(groups, workers)
		if err != nil {
			return nil, err
		}
		out := &outcome{}
		for _, col := range cols {
			out.values = append(out.values, col...)
		}
		return out, nil
	}
}

// serveAlgo picks the serve row's solver, an index into core.Solvers(),
// from the instance seed.
func serveAlgo(inst *Instance) int {
	return int(uint64(inst.Seed) % uint64(len(core.Solvers())))
}

// serveDirect is the serial engine's serveAlgo placement, once for each
// request servePlace sends.
func serveDirect(inst *Instance) (*outcome, error) {
	serial, err := engineAt(1)(inst)
	if err != nil {
		return nil, err
	}
	want := serial.placements[serveAlgo(inst)]
	return &outcome{placements: []*core.Placement{want, want}}, nil
}

// servePlace sends the instance to an in-process server twice: a cache
// miss, then a hit. Wire codec, digest, cache, budget override and solver
// dispatch must add nothing and lose nothing.
func servePlace(inst *Instance) (*outcome, error) {
	spec, err := serve.ProblemSpecOf(inst.Problem)
	if err != nil {
		return nil, err
	}
	req := serve.PlaceRequest{ProblemSpec: spec, K: inst.Problem.K, Algo: core.Solvers()[serveAlgo(inst)].Name}
	s := serve.New(serve.Config{})
	out := &outcome{}
	for _, wantCache := range []string{serve.CacheMiss, serve.CacheHit} {
		var got serve.PlaceResponse
		if err := postServe(s, "/v1/place", req, &got); err != nil {
			return nil, err
		}
		if got.Cache != wantCache {
			return nil, fmt.Errorf("cache outcome %q, want %q", got.Cache, wantCache)
		}
		out.placements = append(out.placements, served(&got))
	}
	return out, nil
}

// served wraps a /v1/place response for core.SamePlacement.
func served(r *serve.PlaceResponse) *core.Placement {
	return &core.Placement{Nodes: r.Nodes, Attracted: r.Attracted, StepGains: r.StepGains, StepKinds: r.StepKinds}
}

// batchQuery is every algorithm at a seed-derived budget and at the
// instance's K, plus the problem's spec and content digest.
func batchQuery(inst *Instance) (spec serve.ProblemSpec, items []serve.BatchItem, digest string, err error) {
	p := inst.Problem
	if spec, err = serve.ProblemSpecOf(p); err != nil {
		return
	}
	if digest, err = core.ProblemDigest(p); err != nil {
		return
	}
	for i, sv := range core.Solvers() {
		k := 1 + (int(uint64(inst.Seed))+i)%p.K
		items = append(items, serve.BatchItem{K: k, Algo: sv.Name}, serve.BatchItem{K: p.K, Algo: sv.Name})
	}
	return
}

// batchSequential sends each batch item as its own /v1/place; every
// response must name the problem's content digest.
func batchSequential(inst *Instance) (*outcome, error) {
	spec, items, digest, err := batchQuery(inst)
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{})
	out := &outcome{}
	for i, item := range items {
		var got serve.PlaceResponse
		if err := postServe(s, "/v1/place", serve.PlaceRequest{ProblemSpec: spec, K: item.K, Algo: item.Algo}, &got); err != nil {
			return nil, fmt.Errorf("place %d: %w", i, err)
		}
		if got.Digest != digest {
			return nil, fmt.Errorf("place %d digest %q, problem digest %q", i, got.Digest, digest)
		}
		out.placements = append(out.placements, served(&got))
	}
	return out, nil
}

// batchServed sends every item in one /v1/batch: one engine resolve fanned
// across a worker pool must change nothing about any single answer.
func batchServed(inst *Instance) (*outcome, error) {
	spec, items, digest, err := batchQuery(inst)
	if err != nil {
		return nil, err
	}
	var batch serve.BatchResponse
	if err := postServe(serve.New(serve.Config{}), "/v1/batch",
		serve.BatchRequest{ProblemSpec: spec, Items: items}, &batch); err != nil {
		return nil, err
	}
	if len(batch.Items) != len(items) || batch.Failed != 0 {
		return nil, fmt.Errorf("%d items, %d failed; want %d items, 0 failed",
			len(batch.Items), batch.Failed, len(items))
	}
	if batch.Digest != digest {
		return nil, fmt.Errorf("batch digest %q, problem digest %q", batch.Digest, digest)
	}
	out := &outcome{}
	for i, got := range batch.Items {
		if got.Index != i {
			return nil, fmt.Errorf("item %d carries index %d", i, got.Index)
		}
		out.placements = append(out.placements, &core.Placement{Nodes: got.Nodes,
			Attracted: got.Attracted, StepGains: got.StepGains, StepKinds: got.StepKinds})
	}
	return out, nil
}

// postServe POSTs req as JSON to s and decodes the 200 response into out.
func postServe(s *serve.Server, path string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("encode %s request: %w", path, err)
	}
	hreq, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	rec := newRecorder()
	s.Handler().ServeHTTP(rec, hreq)
	if rec.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, rec.status, rec.body.String())
	}
	if err := json.Unmarshal(rec.body.Bytes(), out); err != nil {
		return fmt.Errorf("decode %s response: %w", path, err)
	}
	return nil
}

// recorder is a minimal in-memory http.ResponseWriter. net/http/httptest
// provides one, but that package registers a -httptest.serve flag at init,
// and this file is linked into the production cmd/soak binary.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{status: http.StatusOK, header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// deltaOps derives a deterministic update batch from the instance seed.
// Every random draw goes through the instance's seed stream and flow
// indices are taken modulo the *current* flow count, so the same seed
// yields a valid batch on any shrunk version of the instance — the
// shrinker can remove flows without invalidating the scenario.
func deltaOps(inst *Instance) ([]core.FlowUpdate, error) {
	r := stats.NewRand(inst.Seed, 41)
	p := inst.Problem
	g := p.Graph
	n := g.NumNodes()
	nFlows := p.Flows.Len()
	count := 3 + r.Intn(5)
	ops := make([]core.FlowUpdate, 0, count)
	adds := 0
	drift := func() core.FlowUpdate {
		return core.FlowUpdate{Op: core.OpSetVolume, Flow: r.Intn(nFlows), Volume: float64(1 + r.Intn(500))}
	}
	for i := 0; i < count; i++ {
		roll := r.Float64()
		switch {
		case roll < 0.55:
			ops = append(ops, drift())
		case roll < 0.8 && nFlows > 1:
			ops = append(ops, core.FlowUpdate{Op: core.OpRemoveFlow, Flow: r.Intn(nFlows)})
			nFlows--
		default:
			// Add a shortest-path flow between two random distinct nodes;
			// fall back to a volume drift when the draw yields no usable
			// path so the batch length stays seed-determined.
			src, dst := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			path, _, err := g.ShortestPath(src, dst)
			if src == dst || err != nil {
				ops = append(ops, drift())
				continue
			}
			f, err := flow.New(fmt.Sprintf("delta-add-%d", adds), path,
				float64(1+r.Intn(200)), 0.05+0.9*r.Float64())
			if err != nil {
				return nil, fmt.Errorf("add flow: %w", err)
			}
			adds++
			ops = append(ops, core.FlowUpdate{Op: core.OpAddFlow, Add: f})
			nFlows++
		}
	}
	return ops, nil
}

// deltaBuild builds odd seeds under a tiny shard budget, so resharding on
// remove and shard growth on add run, not just the single-shard paths.
func deltaBuild(inst *Instance, p *core.Problem) (*core.Engine, error) {
	if uint64(inst.Seed)%2 == 1 {
		return core.NewEngineMaxShard(p, 2, p.Graph.NumNodes()+1)
	}
	return core.NewEngine(p)
}

// deltaOutcome is solvedOutcome at Solve's default worker count plus the
// post-update lazy placement, e's flow count, its prefix objectives over
// a seed-sampled placement (flow updates leave candidates alone, so the
// sample is valid on every side) and its standalone gains, taken before
// any solve could compute them afresh.
func deltaOutcome(inst *Instance, e *core.Engine, lazy *core.Placement, gains []float64) (*outcome, error) {
	out, err := solvedOutcome(e, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	out.placements = append(out.placements, lazy)
	out.values = append([]float64{float64(e.Problem().Flows.Len())},
		e.EvaluatePrefixes(samplePlacement(inst, 42, 6))...)
	out.values = append(out.values, gains...)
	return out, nil
}

// deltaFresh rebuilds from ApplyToProblem and solves the lazy slot cold.
func deltaFresh(inst *Instance) (*outcome, error) {
	ops, err := deltaOps(inst)
	if err != nil {
		return nil, err
	}
	updated, err := core.ApplyToProblem(inst.Problem, ops)
	if err != nil {
		return nil, err
	}
	fresh, err := deltaBuild(inst, updated)
	if err != nil {
		return nil, err
	}
	gains := fresh.StandaloneGains()
	lazy, err := core.GreedyLazy(fresh)
	if err != nil {
		return nil, err
	}
	return deltaOutcome(inst, fresh, lazy, gains)
}

// deltaApplied derives from a private engine (inst.Engine() is shared
// across checks) by ApplyCopy, splitting the batch into gens consecutive
// parts (deltaOps draws at least 3 ops) so that each generation updates
// the engine the one before derived, page table included. Every receiver
// must keep its fingerprint. Each generation's standalone gains are
// derived from its receiver's, which NewWarm or the previous generation
// computed; the Warm copy, refreshed with each generation's touched set,
// seeds GreedyLazyWarm for the lazy slot.
func deltaApplied(gens int) func(*Instance) (*outcome, error) {
	return func(inst *Instance) (*outcome, error) {
		ops, err := deltaOps(inst)
		if err != nil {
			return nil, err
		}
		e, err := deltaBuild(inst, inst.Problem)
		if err != nil {
			return nil, err
		}
		warm := e.NewWarm()
		var gains []float64
		for g := 0; g < gens; g++ {
			part := ops[g*len(ops)/gens : (g+1)*len(ops)/gens]
			fp := e.Fingerprint()
			next, touched, err := e.ApplyCopy(part)
			if err != nil {
				return nil, fmt.Errorf("generation %d: %w", g+1, err)
			}
			if got := e.Fingerprint(); got != fp {
				return nil, fmt.Errorf("generation %d: ApplyCopy mutated its receiver: fingerprint %x -> %x", g+1, fp, got)
			}
			if len(touched) == 0 {
				return nil, fmt.Errorf("generation %d: %d ops reported no touched nodes", g+1, len(part))
			}
			for i := 1; i < len(touched); i++ {
				if touched[i] <= touched[i-1] {
					return nil, fmt.Errorf("generation %d: touched nodes not sorted-distinct at %d: %v", g+1, i, touched)
				}
			}
			e = next
			gains = e.StandaloneGains()
			warm.Refresh(e, touched)
		}
		lazy, err := core.GreedyLazyWarm(e, warm)
		if err != nil {
			return nil, fmt.Errorf("warm lazy: %w", err)
		}
		return deltaOutcome(inst, e, lazy, gains)
	}
}
