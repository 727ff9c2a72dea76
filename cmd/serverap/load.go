package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"roadside/internal/citygen"
	"roadside/internal/classify"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/invariant"
	"roadside/internal/obs"
	"roadside/internal/serve"
	"roadside/internal/utility"
)

// loadOpts parameterizes one mixed-workload load run.
type loadOpts struct {
	dur      time.Duration
	clients  int
	problems int
	seed     int64
	// shards is the worker count behind the router (>= 1). The router
	// front is always exercised, so 1-shard and N-shard runs pay the same
	// proxy cost and differ only in aggregate cache capacity.
	shards int
	// zipfS skews the problem-popularity distribution (must be > 1; a
	// value near 1 is near-uniform, larger values concentrate traffic).
	zipfS float64
	// heavy generates city-scale problems (expensive engine builds) in
	// place of the small invariant instances — the compare mode's working
	// set, where cache capacity rather than solve cost bounds throughput.
	heavy bool
	// byRef makes clients address problems by digest (the steady-state
	// usage pattern) and fall back to the full-problem body only when the
	// serving side answers unknown_digest — so cache misses pay the full
	// decode + build cost while hits ride the cheap reference path.
	byRef bool
	// coalesceGate asserts cluster-wide builds <= problems+1 after the
	// run; disable when the cache is deliberately undersized and
	// re-builds are the point.
	coalesceGate bool
	metricsOut   string
}

// loadStats is what one load run measured.
type loadStats struct {
	requests, failures, reseeds int64
	wall                        time.Duration
	builds, hits, updates       int64
	lat                         obs.Snapshot
}

// reqPerSec is the run's aggregate throughput.
func (st *loadStats) reqPerSec() float64 {
	if st.wall <= 0 {
		return 0
	}
	return float64(st.requests) / st.wall.Seconds()
}

// loadAlgos is the wire algorithm rotation of the mixed workload.
var loadAlgos = []string{"algorithm1", "algorithm2", "combined", "lazy"}

// latEndpoints are the client-side latency histograms the harness keeps,
// one per endpoint family.
var latEndpoints = []string{"place", "evaluate", "batch", "jobs", "update"}

// loadProblem is one generated instance with every oracle the mixed
// workload checks against: per-algorithm single-worker placements, the
// evaluate objective, and the precomputed request bodies.
type loadProblem struct {
	digest string
	k      int
	arena  int64
	// placeBody, refPlace, jobBody and oracle are indexed by algorithm
	// name; ref* bodies address the problem by digest instead of value.
	placeBody map[string][]byte
	refPlace  map[string][]byte
	jobBody   map[string][]byte
	oracle    map[string]*core.Placement
	batchBody []byte
	refBatch  []byte
	evalBody  []byte
	refEval   []byte
	evalObj   float64
}

// loadLineage is the evolving problem of the update mix: one client drives
// POST /v1/update flipping flow 0's volume between two values, so the
// lineage's sequence parity determines the engine's exact contents.
// Readers resolve by reference and must match the parity-class oracle
// bit-for-bit — old-or-new is fine (the digest says which), a torn mix of
// two sequences is a failure.
type loadLineage struct {
	base       string
	k          int
	volA, volB float64
	evalNodes  []graph.NodeID
	// seedBody re-establishes the lineage (full-problem place) after a
	// capacity eviction; the content-addressed base digest is unchanged
	// and the sequence restarts at 0.
	seedBody []byte
	// Indexed by parity class: 0 = original volumes (seq 0), 1 = volA
	// (odd seq), 2 = volB (even seq > 0).
	wantPl  [3]*core.Placement
	wantObj [3]float64
}

// classOf maps a lineage sequence onto its oracle index.
func classOf(seq int) int {
	switch {
	case seq == 0:
		return 0
	case seq%2 == 1:
		return 1
	default:
		return 2
	}
}

// apiError is a decoded wire error; fire helpers return it so callers can
// branch on the machine-readable code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("status %d %s: %s", e.status, e.code, e.msg)
}

// loadClient is one workload client's view of the cluster: where to POST,
// whether to prefer by-reference bodies, and where eviction fallbacks are
// counted.
type loadClient struct {
	c       *http.Client
	base    string
	byRef   bool
	reseeds *atomic.Int64
}

// postPreferRef POSTs the by-reference body when enabled and falls back to
// the full-problem body only when the serving side no longer holds the
// digest — the miss path that pays decode + engine build.
func (lc *loadClient) postPreferRef(path string, ref, full []byte, out any) error {
	if lc.byRef && len(ref) > 0 {
		err := postDecode(lc.c, lc.base+path, ref, out)
		var ae *apiError
		if err == nil || !errors.As(err, &ae) || ae.code != serve.CodeUnknownDigest {
			return err
		}
		lc.reseeds.Add(1)
	}
	return postDecode(lc.c, lc.base+path, full, out)
}

// postDecode POSTs body and decodes the 200 response into out; error
// responses come back as *apiError.
func postDecode(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var er serve.ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Err.Code != "" {
			return &apiError{status: resp.StatusCode, code: er.Err.Code, msg: er.Err.Message}
		}
		return fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return json.Unmarshal(data, out)
}

// heavyProblem generates a city-scale instance: a Seattle-like street grid
// with bus-route flows, sized so the engine build is the dominant cost —
// the regime where cache capacity, not CPU, bounds serving throughput.
func heavyProblem(seed int64) (*core.Problem, error) {
	cfg := citygen.SeattleConfig()
	cfg.Name = fmt.Sprintf("load-city-%d", seed)
	city, err := citygen.Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	demand := citygen.DefaultDemand()
	demand.Routes = 120
	routes, err := citygen.GenerateRoutes(city, demand, seed+1)
	if err != nil {
		return nil, err
	}
	flowList, err := citygen.RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		return nil, err
	}
	flows, err := flow.NewSet(flowList)
	if err != nil {
		return nil, err
	}
	cls, err := classify.Classify(flows, city.Graph.NumNodes(), classify.Options{})
	if err != nil {
		return nil, err
	}
	return &core.Problem{
		Graph:   city.Graph,
		Shop:    cls.Nodes(classify.City)[0],
		Flows:   flows,
		Utility: utility.Linear{D: 4_000},
		K:       6,
	}, nil
}

// buildPool generates the problem working set with full oracle coverage.
// The second return is the total engine arena footprint — the
// cache-capacity planning number of the compare mode.
func buildPool(n int, seed int64, heavy bool) ([]loadProblem, int64, error) {
	pool := make([]loadProblem, n)
	var totalArena int64
	for i := range pool {
		var p *core.Problem
		if heavy {
			hp, err := heavyProblem(seed + int64(i))
			if err != nil {
				return nil, 0, err
			}
			p = hp
		} else {
			inst, err := invariant.Generate(seed + int64(i))
			if err != nil {
				return nil, 0, err
			}
			p = inst.Problem
		}
		spec, err := serve.ProblemSpecOf(p)
		if err != nil {
			return nil, 0, err
		}
		digest, err := core.ProblemDigest(p)
		if err != nil {
			return nil, 0, err
		}
		eng, err := core.NewEngineWorkers(p, 1)
		if err != nil {
			return nil, 0, err
		}
		lp := loadProblem{
			digest:    digest,
			k:         p.K,
			arena:     eng.ArenaBytes(),
			placeBody: map[string][]byte{},
			refPlace:  map[string][]byte{},
			jobBody:   map[string][]byte{},
			oracle:    map[string]*core.Placement{},
		}
		items := make([]serve.BatchItem, 0, len(loadAlgos))
		for _, algo := range loadAlgos {
			pl, err := solveWorkers(algo, eng)
			if err != nil {
				return nil, 0, err
			}
			lp.oracle[algo] = pl
			body, err := json.Marshal(serve.PlaceRequest{ProblemSpec: spec, K: p.K, Algo: algo})
			if err != nil {
				return nil, 0, err
			}
			lp.placeBody[algo] = body
			ref, err := json.Marshal(serve.PlaceRequest{Digest: digest, K: p.K, Algo: algo})
			if err != nil {
				return nil, 0, err
			}
			lp.refPlace[algo] = ref
			job, err := json.Marshal(serve.JobRequest{Kind: "place", Request: body})
			if err != nil {
				return nil, 0, err
			}
			lp.jobBody[algo] = job
			items = append(items, serve.BatchItem{K: p.K, Algo: algo})
		}
		if lp.batchBody, err = json.Marshal(serve.BatchRequest{ProblemSpec: spec, Items: items}); err != nil {
			return nil, 0, err
		}
		if lp.refBatch, err = json.Marshal(serve.BatchRequest{Digest: digest, Items: items}); err != nil {
			return nil, 0, err
		}
		evalNodes := lp.oracle["lazy"].Nodes
		if len(evalNodes) == 0 {
			evalNodes = []graph.NodeID{0}
		}
		if lp.evalBody, err = json.Marshal(serve.EvaluateRequest{ProblemSpec: spec, Placement: evalNodes}); err != nil {
			return nil, 0, err
		}
		if lp.refEval, err = json.Marshal(serve.EvaluateRequest{Digest: digest, Placement: evalNodes}); err != nil {
			return nil, 0, err
		}
		lp.evalObj = eng.Evaluate(evalNodes)
		pool[i] = lp
		totalArena += lp.arena
	}
	return pool, totalArena, nil
}

// placed wraps a served placement for core.SamePlacement.
func placed(r *serve.PlaceResponse) *core.Placement {
	return &core.Placement{Nodes: r.Nodes, Attracted: r.Attracted, StepGains: r.StepGains, StepKinds: r.StepKinds}
}

// firePlace POSTs a place (by reference when enabled, else the full
// problem) and checks bit-identity.
func firePlace(lc *loadClient, p *loadProblem, algo string) error {
	var got serve.PlaceResponse
	if err := lc.postPreferRef("/v1/place", p.refPlace[algo], p.placeBody[algo], &got); err != nil {
		return err
	}
	if got.Digest != p.digest {
		return fmt.Errorf("place digest %q, want %q", got.Digest, p.digest)
	}
	if err := core.SamePlacement(p.oracle[algo], placed(&got)); err != nil {
		return fmt.Errorf("place %s: %w", algo, err)
	}
	return nil
}

// fireEvaluate POSTs an evaluate and checks the objective bits.
func fireEvaluate(lc *loadClient, p *loadProblem) error {
	var got serve.EvaluateResponse
	if err := lc.postPreferRef("/v1/evaluate", p.refEval, p.evalBody, &got); err != nil {
		return err
	}
	if math.Float64bits(got.Objective) != math.Float64bits(p.evalObj) {
		return fmt.Errorf("evaluate objective %v, oracle %v (not bit-identical)", got.Objective, p.evalObj)
	}
	return nil
}

// fireBatch POSTs the problem's all-algorithms batch and checks every item
// against its oracle.
func fireBatch(lc *loadClient, p *loadProblem) error {
	var got serve.BatchResponse
	if err := lc.postPreferRef("/v1/batch", p.refBatch, p.batchBody, &got); err != nil {
		return err
	}
	if got.Failed != 0 || len(got.Items) != len(loadAlgos) {
		return fmt.Errorf("batch: %d items, %d failed", len(got.Items), got.Failed)
	}
	for i, algo := range loadAlgos {
		item := got.Items[i]
		if item.Error != nil {
			return fmt.Errorf("batch item %d (%s): %s", i, algo, item.Error.Message)
		}
		served := &core.Placement{Nodes: item.Nodes, Attracted: item.Attracted,
			StepGains: item.StepGains, StepKinds: item.StepKinds}
		if err := core.SamePlacement(p.oracle[algo], served); err != nil {
			return fmt.Errorf("batch %s: %w", algo, err)
		}
	}
	return nil
}

// fireJob submits an async place job, polls it to a terminal state, and
// checks the result bit-for-bit. A queue_full refusal is honest
// backpressure, not a correctness failure: the caller backs off and the
// iteration still counts.
func fireJob(lc *loadClient, p *loadProblem, algo string, deadline time.Time) error {
	client, base := lc.c, lc.base
	var st serve.JobStatus
	if err := postDecode(client, base+"/v1/jobs", p.jobBody[algo], &st); err != nil {
		var ae *apiError
		if errors.As(err, &ae) && ae.code == serve.CodeQueueFull {
			time.Sleep(5 * time.Millisecond)
			return nil
		}
		return err
	}
	for {
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("job %s poll: status %d: %s", st.ID, resp.StatusCode, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
		switch st.State {
		case serve.JobDone:
			raw, err := json.Marshal(st.Result)
			if err != nil {
				return err
			}
			var got serve.PlaceResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				return fmt.Errorf("job %s result is not a PlaceResponse: %w", st.ID, err)
			}
			if err := core.SamePlacement(p.oracle[algo], placed(&got)); err != nil {
				return fmt.Errorf("job %s: %w", algo, err)
			}
			return nil
		case serve.JobFailed, serve.JobCanceled:
			return fmt.Errorf("job %s finished as %s: %+v", st.ID, st.State, st.Error)
		}
		if time.Now().After(deadline.Add(30 * time.Second)) {
			return fmt.Errorf("job %s still %s long past the run deadline", st.ID, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// seedLineage generates the update-mix problem, establishes its lineage
// with one full-problem place, and precomputes the three parity-class
// oracles every by-reference read is checked against.
func seedLineage(client *http.Client, base string, seed int64) (*loadLineage, error) {
	inst, err := invariant.Generate(seed)
	if err != nil {
		return nil, err
	}
	p := inst.Problem
	spec, err := serve.ProblemSpecOf(p)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.PlaceRequest{ProblemSpec: spec, K: p.K, Algo: "lazy"})
	if err != nil {
		return nil, err
	}
	var pr serve.PlaceResponse
	if err := postDecode(client, base+"/v1/place", body, &pr); err != nil {
		return nil, fmt.Errorf("seed lineage place: %w", err)
	}

	l := &loadLineage{base: pr.Digest, k: p.K, volA: 33, volB: 77, seedBody: body}
	variants := [3]*core.Problem{p, nil, nil}
	for class, vol := range map[int]float64{1: l.volA, 2: l.volB} {
		vp, err := core.ApplyToProblem(p, []core.FlowUpdate{{Op: core.OpSetVolume, Flow: 0, Volume: vol}})
		if err != nil {
			return nil, err
		}
		variants[class] = vp
	}
	for class, vp := range variants {
		eng, err := core.NewEngineWorkers(vp, 1)
		if err != nil {
			return nil, err
		}
		pl, err := core.GreedyLazy(eng)
		if err != nil {
			return nil, err
		}
		l.wantPl[class] = pl
		if class == 0 {
			l.evalNodes = pl.Nodes
			if len(l.evalNodes) == 0 {
				l.evalNodes = []graph.NodeID{0}
			}
		}
		l.wantObj[class] = eng.Evaluate(l.evalNodes)
	}
	return l, nil
}

// reseedLineage re-establishes an evicted lineage with a full-problem
// place; the content-addressed base digest is unchanged and the sequence
// restarts at 0 (original volumes), so the parity-class oracles stay valid.
func reseedLineage(client *http.Client, base string, l *loadLineage) error {
	var pr serve.PlaceResponse
	if err := postDecode(client, base+"/v1/place", l.seedBody, &pr); err != nil {
		return err
	}
	if pr.Digest != l.base {
		return fmt.Errorf("reseed produced digest %q, lineage base %q", pr.Digest, l.base)
	}
	return nil
}

// fireUpdate advances the lineage one sequence, setting flow 0's volume by
// the parity the *next* sequence will have, and returns the new sequence.
func fireUpdate(client *http.Client, base string, l *loadLineage, seq int) (int, error) {
	vol := l.volA
	if classOf(seq+1) == 2 {
		vol = l.volB
	}
	body, err := json.Marshal(serve.UpdateRequest{
		Digest:  l.base,
		Updates: []serve.FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: vol}},
	})
	if err != nil {
		return 0, err
	}
	var up serve.UpdateResponse
	if err := postDecode(client, base+"/v1/update", body, &up); err != nil {
		return 0, err
	}
	return up.Seq, nil
}

// fireLineageRead resolves the lineage by reference — place or evaluate —
// and checks the answer bit-for-bit against the oracle of the sequence the
// response's digest names.
func fireLineageRead(client *http.Client, base string, l *loadLineage, place bool) error {
	if place {
		body, err := json.Marshal(serve.PlaceRequest{Digest: l.base, K: l.k, Algo: "lazy"})
		if err != nil {
			return err
		}
		var pr serve.PlaceResponse
		if err := postDecode(client, base+"/v1/place", body, &pr); err != nil {
			return err
		}
		_, seq, err := core.SplitDigest(pr.Digest)
		if err != nil {
			return fmt.Errorf("lineage place digest %q: %v", pr.Digest, err)
		}
		if err := core.SamePlacement(l.wantPl[classOf(seq)], placed(&pr)); err != nil {
			return fmt.Errorf("lineage place seq %d: %w", seq, err)
		}
		return nil
	}
	body, err := json.Marshal(serve.EvaluateRequest{Digest: l.base, Placement: l.evalNodes})
	if err != nil {
		return err
	}
	var ev serve.EvaluateResponse
	if err := postDecode(client, base+"/v1/evaluate", body, &ev); err != nil {
		return err
	}
	_, seq, err := core.SplitDigest(ev.Digest)
	if err != nil {
		return fmt.Errorf("lineage evaluate digest %q: %v", ev.Digest, err)
	}
	if want := l.wantObj[classOf(seq)]; math.Float64bits(ev.Objective) != math.Float64bits(want) {
		return fmt.Errorf("lineage evaluate seq %d: objective %v, oracle %v (torn)", seq, ev.Objective, want)
	}
	return nil
}

// runLoad starts a shard cluster on loopback and drives the mixed
// workload — place, evaluate, batch, async jobs, and delta updates — with
// zipf-distributed problem popularity, checking every answer bit-for-bit
// and keeping client-side latency histograms per endpoint.
func runLoad(cfg serve.Config, o loadOpts) (*loadStats, error) {
	if o.clients < 1 || o.problems < 1 {
		return nil, fmt.Errorf("-clients and -problems must be >= 1")
	}
	if o.shards < 1 {
		o.shards = 1
	}
	if o.zipfS <= 1 {
		o.zipfS = 1.1
	}
	pool, _, err := buildPool(o.problems, o.seed, o.heavy)
	if err != nil {
		return nil, err
	}

	cluster, err := startCluster(cfg, o.shards)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	front := &http.Server{Handler: cluster.router.Handler()}
	go func() {
		//lint:ignore errdrop Serve always returns non-nil on Shutdown; real failures surface as request errors below
		_ = front.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serverap load: %v, %d clients, %d problems, %d shard(s), loopback %s\n",
		o.dur, o.clients, o.problems, o.shards, base)

	lat := obs.NewRegistry()
	hists := map[string]*obs.Histogram{}
	for _, name := range latEndpoints {
		hists[name] = lat.Histogram("client."+name+".us", obs.DurationBucketsUS)
	}
	observe := func(name string, start time.Time) {
		hists[name].Observe(float64(time.Since(start).Microseconds()))
	}

	var (
		requests, failures, reseeds atomic.Int64
		wg                          sync.WaitGroup
	)
	started := time.Now()
	deadline := started.Add(o.dur)
	client := &http.Client{Timeout: cfg.Timeout + 10*time.Second}

	// The update mix: one evolving lineage driven by a dedicated updater
	// client, read by reference from every mixed client. When a
	// capacity-constrained cache evicts the lineage engine, the updater
	// re-seeds it with a full-problem place — counted as a reseed, not a
	// failure, because the gate is about bit-identity, not retention.
	lineage, err := seedLineage(client, base, o.seed+int64(o.problems))
	if err != nil {
		return nil, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 0
		for time.Now().Before(deadline) {
			start := time.Now()
			next, err := fireUpdate(client, base, lineage, seq)
			var ae *apiError
			if errors.As(err, &ae) && ae.code == serve.CodeUnknownDigest {
				// Evicted under memory pressure: re-seed the lineage.
				if err := reseedLineage(client, base, lineage); err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "serverap load: reseed: %v\n", err)
				} else {
					reseeds.Add(1)
					seq = 0
				}
				continue
			}
			if err != nil {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "serverap load: updater: %v\n", err)
				time.Sleep(10 * time.Millisecond)
				continue
			}
			observe("update", start)
			if next != seq+1 {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "serverap load: updater: seq %d -> %d, want %d\n", seq, next, seq+1)
			}
			seq = next
			requests.Add(1)
		}
	}()

	lc := &loadClient{c: client, base: base, byRef: o.byRef, reseeds: &reseeds}
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(o.seed*1_000 + int64(c)))
			zipf := rand.NewZipf(rng, o.zipfS, 1, uint64(len(pool)-1))
			for i := 0; time.Now().Before(deadline); i++ {
				p := &pool[zipf.Uint64()]
				algo := loadAlgos[(c+i)%len(loadAlgos)]
				var (
					err  error
					name string
				)
				start := time.Now()
				switch op := rng.Intn(10); {
				case op < 4:
					name = "place"
					err = firePlace(lc, p, algo)
				case op < 5:
					name = "evaluate"
					err = fireEvaluate(lc, p)
				case op < 7:
					name = "batch"
					err = fireBatch(lc, p)
				case op < 8:
					name = "jobs"
					err = fireJob(lc, p, algo, deadline)
				default:
					asPlace := (c+i)%2 == 0
					name = "evaluate"
					if asPlace {
						name = "place"
					}
					err = fireLineageRead(client, base, lineage, asPlace)
					var ae *apiError
					if errors.As(err, &ae) && ae.code == serve.CodeUnknownDigest {
						// The lineage was evicted and the updater has not
						// re-seeded yet: an availability blip under a
						// deliberately undersized cache, not a wrong answer.
						reseeds.Add(1)
						err = nil
					}
				}
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "serverap load: client %d: %v\n", c, err)
				} else {
					observe(name, start)
				}
				requests.Add(1)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(started)

	// Snapshot every shard's metrics, the router's, and the client-side
	// latency registry before shutting the listeners down.
	var metricsText bytes.Buffer
	for i, s := range cluster.servers {
		fmt.Fprintf(&metricsText, "# shard w%d\n", i)
		if err := s.Metrics().WriteText(&metricsText); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(&metricsText, "# router\n")
	if err := cluster.router.Metrics().WriteText(&metricsText); err != nil {
		return nil, err
	}
	fmt.Fprintf(&metricsText, "# client latency\n")
	if err := lat.WriteText(&metricsText); err != nil {
		return nil, err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.drain(drainCtx); err != nil {
		return nil, err
	}
	if err := front.Shutdown(drainCtx); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	st := &loadStats{
		requests: requests.Load(),
		failures: failures.Load(),
		reseeds:  reseeds.Load(),
		wall:     wall,
		builds:   cluster.counterTotal("serve.engine.builds"),
		hits:     cluster.counterTotal("serve.cache.hit"),
		updates:  cluster.counterTotal("serve.cache.updates"),
		lat:      lat.Snapshot(),
	}
	fmt.Printf("serverap load: %d requests, %d failures, %d engine builds, %d cache hits, %d updates\n",
		st.requests, st.failures, st.builds, st.hits, st.updates)
	fmt.Printf("serverap load: %d reseeds, %.0f req/s over %v\n",
		st.reseeds, st.reqPerSec(), wall.Round(time.Millisecond))
	printLatency(st.lat)

	if o.metricsOut != "" {
		if err := os.WriteFile(o.metricsOut, metricsText.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("serverap load: metrics written to %s\n", o.metricsOut)
	}
	if st.failures > 0 {
		return st, fmt.Errorf("%d of %d requests failed", st.failures, st.requests)
	}
	if o.coalesceGate && st.builds > int64(len(pool))+1 {
		return st, fmt.Errorf("%d engine builds for %d distinct problems (coalescing or shard affinity broken)",
			st.builds, len(pool)+1)
	}
	return st, nil
}

// histQuantile estimates the q-quantile of a histogram from its bucket
// counts: the upper bound of the bucket the target rank lands in (a
// conservative, resolution-limited estimate).
func histQuantile(hs obs.HistSnapshot, q float64) float64 {
	if hs.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(hs.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range hs.Buckets {
		cum += c
		if cum >= target {
			if i < len(hs.Bounds) {
				return hs.Bounds[i]
			}
			break
		}
	}
	return hs.Bounds[len(hs.Bounds)-1] * 2 // overflow bucket: beyond the last bound
}

// printLatency renders each endpoint's client-side p50/p99.
func printLatency(snap obs.Snapshot) {
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hs := snap.Histograms[name]
		if hs.Count == 0 {
			continue
		}
		fmt.Printf("serverap load: %-18s n=%-7d p50=%.0fus p99=%.0fus\n",
			name, hs.Count, histQuantile(hs, 0.50), histQuantile(hs, 0.99))
	}
}
