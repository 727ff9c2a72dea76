package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roadside/internal/core"
	"roadside/internal/graph"
)

// newTestCluster builds n shard workers and a router in front of them,
// all over real loopback listeners. Returns the router front plus the
// per-shard servers for metric inspection.
func newTestCluster(t *testing.T, n int, cfg Config) (*Router, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	backends := make([]Backend, n)
	servers := make([]*Server, n)
	workers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		wcfg := cfg
		wcfg.Metrics = nil // each shard owns a private registry
		wcfg.JobIDPrefix = "w" + string(rune('0'+i)) + "-"
		servers[i] = New(wcfg)
		workers[i] = httptest.NewServer(servers[i].Handler())
		t.Cleanup(workers[i].Close)
		backends[i] = Backend{Name: "w" + string(rune('0'+i)), URL: workers[i].URL}
	}
	router, err := NewRouter(RouterConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)
	return router, front, servers, workers
}

// totalBuilds sums serve.engine.builds across the cluster's shards.
func totalBuilds(servers []*Server) int64 {
	var n int64
	for _, s := range servers {
		n += s.Metrics().Counter("serve.engine.builds").Value()
	}
	return n
}

// TestRouterBitIdentityAndAffinity is the router acceptance contract: a
// request through the router answers bit-identically to a direct
// single-worker server, and every request touching one problem — full
// body, by reference, different budgets — lands on one shard (the
// cluster builds each problem's engine exactly once).
func TestRouterBitIdentityAndAffinity(t *testing.T) {
	_, front, servers, _ := newTestCluster(t, 4, Config{})
	problems := raceProblems(t, 6)
	for i := range problems {
		p := &problems[i]
		if err := checkPlace(front.URL, p); err != nil {
			t.Fatalf("problem %d via router: %v", i, err)
		}
		// The same problem by reference must hit the shard that built it.
		status, body := postJSON(t, front.URL+"/v1/place", mustMarshal(t, PlaceRequest{
			Digest: p.digest, K: 1, Algo: "lazy"}))
		if status != http.StatusOK {
			t.Fatalf("problem %d by reference via router: status %d: %s", i, status, body)
		}
	}
	if builds := totalBuilds(servers); builds != int64(len(problems)) {
		t.Errorf("cluster built %d engines for %d problems: by-reference requests crossed shards",
			builds, len(problems))
	}
}

// TestRouterSpreadsLoad sanity-checks the hash ring: enough distinct
// problems land on more than one shard.
func TestRouterSpreadsLoad(t *testing.T) {
	router, front, servers, _ := newTestCluster(t, 4, Config{})
	problems := raceProblems(t, 8)
	owners := map[string]bool{}
	for i := range problems {
		name, ok := router.Owner(problems[i].digest)
		if !ok {
			t.Fatalf("no owner for %s", problems[i].digest)
		}
		owners[name] = true
		if err := checkPlace(front.URL, &problems[i]); err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
	}
	if len(owners) < 2 {
		t.Errorf("8 problems all hashed to one shard; ring is not spreading")
	}
	loaded := 0
	for _, s := range servers {
		if s.Metrics().Counter("serve.engine.builds").Value() > 0 {
			loaded++
		}
	}
	if loaded != len(owners) {
		t.Errorf("%d shards built engines, Owner predicted %d", loaded, len(owners))
	}
}

// TestRouterUpdateLineage walks the delta path through the router: place
// establishes a lineage on one shard, /v1/update (routed by the same base
// digest) evolves it there, and the derived base@seq digest reads back
// bit-identically — proof that updates are forwarded to the owning shard.
func TestRouterUpdateLineage(t *testing.T) {
	_, front, servers, _ := newTestCluster(t, 4, Config{})
	status, body := postJSON(t, front.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("seed place: status %d: %s", status, body)
	}
	var seeded PlaceResponse
	if err := json.Unmarshal(body, &seeded); err != nil {
		t.Fatal(err)
	}

	status, body = postJSON(t, front.URL+"/v1/update", mustMarshal(t, UpdateRequest{
		Digest:  seeded.Digest,
		Updates: []FlowUpdateSpec{{Op: "set_volume", Flow: 0, Volume: 12}},
	}))
	if status != http.StatusOK {
		t.Fatalf("update via router: status %d: %s", status, body)
	}
	var upd UpdateResponse
	if err := json.Unmarshal(body, &upd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(upd.Digest, "@") {
		t.Fatalf("update digest %q is not a lineage digest", upd.Digest)
	}

	status, body = postJSON(t, front.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{Digest: upd.Digest, K: 2, Algo: "lazy"}))
	if status != http.StatusOK {
		t.Fatalf("pinned read via router: status %d: %s", status, body)
	}
	if builds := totalBuilds(servers); builds != 1 {
		t.Errorf("cluster built %d engines across a single lineage, want 1", builds)
	}
}

// TestRouterJobAffinity pins job routing: a job submitted through the
// router is minted on the digest's owning shard with that shard's ID
// prefix, and status polls route back to it by prefix alone.
func TestRouterJobAffinity(t *testing.T) {
	router, front, _, _ := newTestCluster(t, 4, Config{})
	inner := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "lazy"})
	status, body := postJSON(t, front.URL+"/v1/jobs",
		mustMarshal(t, JobRequest{Kind: "place", Request: inner}))
	if status != http.StatusOK {
		t.Fatalf("submit via router: status %d: %s", status, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// The job ID's prefix names the digest's owning shard.
	p := testProblemDigest(t)
	owner, ok := router.Owner(p)
	if !ok || !strings.HasPrefix(st.ID, owner+"-") {
		t.Fatalf("job id %q minted off the owning shard %q", st.ID, owner)
	}
	final := awaitJob(t, front.URL, st.ID)
	if final.State != JobDone {
		t.Fatalf("job via router finished %+v", final)
	}

	// Unknown prefixes are a routing-level 404, not a proxy error.
	status, code := getJobErrorCode(t, front.URL, "zz-j1")
	if status != http.StatusNotFound || code != CodeUnknownJob {
		t.Errorf("foreign-prefix job: status %d code %q, want 404 unknown_job", status, code)
	}
	status, code = getJobErrorCode(t, front.URL, "noprefix")
	if status != http.StatusNotFound || code != CodeUnknownJob {
		t.Errorf("prefixless job: status %d code %q, want 404 unknown_job", status, code)
	}
}

// testProblemDigest computes the Fig. 4 base digest via the wire (a place
// against any shard returns it).
func testProblemDigest(t *testing.T) string {
	t.Helper()
	s := New(Config{})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/place",
		strings.NewReader(string(mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 1}))))
	s.Handler().ServeHTTP(rec, req)
	var resp PlaceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Digest == "" {
		t.Fatalf("digest probe failed: %v (%s)", err, rec.Body.Bytes())
	}
	return resp.Digest
}

func getJobErrorCode(t *testing.T, url, id string) (int, string) {
	t.Helper()
	status, body := getJob(t, url, id)
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decode error response %s: %v", body, err)
	}
	return status, er.Err.Code
}

// TestRouterShardDown pins the failure contract: killing a worker makes
// requests for its keys answer a machine-readable 502 shard_down once,
// after which the same keys re-route deterministically to one successor
// shard — and unaffected shards never see a blip.
func TestRouterShardDown(t *testing.T) {
	router, front, servers, workers := newTestCluster(t, 4, Config{})
	problems := raceProblems(t, 8)

	// Seed every problem so each shard owns a known subset.
	ownerOf := map[int]string{}
	for i := range problems {
		name, _ := router.Owner(problems[i].digest)
		ownerOf[i] = name
		if err := checkPlace(front.URL, &problems[i]); err != nil {
			t.Fatalf("seed problem %d: %v", i, err)
		}
	}

	// Kill the shard that owns problem 0.
	dead := ownerOf[0]
	deadIdx := -1
	for i := range servers {
		if "w"+string(rune('0'+i)) == dead {
			deadIdx = i
		}
	}
	workers[deadIdx].Close()

	// First contact with the dead shard: 502 shard_down.
	status, body := postJSON(t, front.URL+"/v1/place", mustMarshal(t, PlaceRequest{
		Digest: problems[0].digest, K: 1, Algo: "lazy"}))
	if status != http.StatusBadGateway {
		t.Fatalf("dead-shard request: status %d, want 502 (%s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Err.Code != CodeShardDown {
		t.Fatalf("dead-shard body %s (err %v), want shard_down", body, err)
	}

	// Re-routing is deterministic: Owner moves every dead-shard key to one
	// fixed successor, repeatedly, and the requests now succeed there.
	for i := range problems {
		if ownerOf[i] != dead {
			// Keys of live shards must not move.
			if name, _ := router.Owner(problems[i].digest); name != ownerOf[i] {
				t.Fatalf("live key %d moved %s -> %s after an unrelated shard died", i, ownerOf[i], name)
			}
			continue
		}
		succ1, ok1 := router.Owner(problems[i].digest)
		succ2, ok2 := router.Owner(problems[i].digest)
		if !ok1 || !ok2 || succ1 != succ2 || succ1 == dead {
			t.Fatalf("re-route of key %d is not deterministic: %q/%q", i, succ1, succ2)
		}
		if err := checkPlace(front.URL, &problems[i]); err != nil {
			t.Fatalf("re-routed problem %d: %v", i, err)
		}
	}

	// The dead shard's jobs are gone with it: 502, not a hang.
	status, code := getJobErrorCode(t, front.URL, dead+"-j1")
	if status != http.StatusBadGateway || code != CodeShardDown {
		t.Errorf("dead-shard job status: %d %q, want 502 shard_down", status, code)
	}

	// The router's health view degrades and names the dead shard.
	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h RouterHealth
	err = json.NewDecoder(resp.Body).Decode(&h)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Shards[dead] != "down" {
		t.Errorf("router health = %+v, want degraded with %s down", h, dead)
	}
}

// TestRouterSlowShardStaysUp pins the timeout classification: a worker
// that outlives the proxy client's timeout costs that request a 504
// deadline_exceeded but is NOT marked down — its keys keep their owner and
// the next request succeeds on the very same shard.
func TestRouterSlowShardStaysUp(t *testing.T) {
	var stall atomic.Bool
	stall.Store(true)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stall.Load() {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(2 * time.Second):
			}
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore errdrop test fixture response
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(worker.Close)
	router, err := NewRouter(RouterConfig{
		Backends: []Backend{{Name: "w0", URL: worker.URL}},
		Client:   &http.Client{Timeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	status, body := postJSON(t, front.URL+"/v1/place", []byte(`{"digest":"d","k":1}`))
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout || er.Err.Code != CodeDeadlineExceeded {
		t.Fatalf("slow shard: %d %q, want 504 deadline_exceeded (%s)", status, er.Err.Code, body)
	}
	if owner, ok := router.Owner("d"); !ok || owner != "w0" {
		t.Fatalf("slow shard lost its keys: owner %q ok=%v, want w0", owner, ok)
	}

	// Once the worker answers in time again, the same key succeeds there.
	stall.Store(false)
	if status, body = postJSON(t, front.URL+"/v1/place", []byte(`{"digest":"d","k":1}`)); status != http.StatusOK {
		t.Fatalf("recovered shard: status %d, want 200 (%s)", status, body)
	}
}

// TestRouterClientDisconnectStaysUp pins the cancel classification: a
// client that disconnects mid-proxy fails only its own request — the
// healthy worker it was talking to is not blamed, stays up, and keeps
// serving its keys.
func TestRouterClientDisconnectStaysUp(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore errdrop test fixture response
		_, _ = w.Write([]byte(`{"ok":true}`))
	}))
	t.Cleanup(worker.Close)
	router, err := NewRouter(RouterConfig{Backends: []Backend{{Name: "w0", URL: worker.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(router.Handler())
	t.Cleanup(front.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, front.URL+"/v1/place",
		strings.NewReader(`{"digest":"d","k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-entered
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		//lint:ignore errdrop unreachable in a passing test
		_ = resp.Body.Close()
		t.Fatal("canceled request unexpectedly succeeded")
	}
	close(release)

	// The disconnect blamed the client, not the shard.
	if owner, ok := router.Owner("d"); !ok || owner != "w0" {
		t.Fatalf("client disconnect downed the shard: owner %q ok=%v, want w0", owner, ok)
	}
	if status, body := postJSON(t, front.URL+"/v1/place", []byte(`{"digest":"d","k":1}`)); status != http.StatusOK {
		t.Fatalf("follow-up after disconnect: status %d, want 200 (%s)", status, body)
	}
}

// errorReader fails on first read, simulating a disconnect mid-upload.
type errorReader struct{}

func (errorReader) Read([]byte) (int, error) { return 0, errors.New("peer reset") }

// TestRouterBodyReadErrorShape pins the router's body-read error contract
// to the worker-side solveEndpoint's: only a tripped MaxBody limit is 413
// body_too_large; any other read failure is 400 bad_json.
func TestRouterBodyReadErrorShape(t *testing.T) {
	router, err := NewRouter(RouterConfig{
		Backends: []Backend{{Name: "w0", URL: "http://127.0.0.1:0"}},
		MaxBody:  64,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/place", errorReader{}))
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusBadRequest || er.Err.Code != CodeBadJSON {
		t.Errorf("read failure: %d %q, want 400 bad_json", rec.Code, er.Err.Code)
	}

	rec = httptest.NewRecorder()
	oversized := strings.NewReader(`{"digest":"` + strings.Repeat("x", 128) + `"}`)
	router.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/place", oversized))
	er = ErrorResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || er.Err.Code != CodeBodyTooLarge {
		t.Errorf("oversized body: %d %q, want 413 body_too_large", rec.Code, er.Err.Code)
	}
}

// TestRouterErrorPassthrough asserts the router preserves worker error
// semantics byte-for-byte: status, code, and the uniform error shape.
func TestRouterErrorPassthrough(t *testing.T) {
	_, front, _, _ := newTestCluster(t, 2, Config{})
	cases := []struct {
		name, path string
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{"bad budget", "/v1/place",
			mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 0}),
			http.StatusUnprocessableEntity, CodeBadBudget},
		{"unknown digest", "/v1/place", mustMarshal(t, PlaceRequest{
			Digest: "rapd1-0000000000000000000000000000000000000000000000000000000000000000",
			K:      1}),
			http.StatusNotFound, CodeUnknownDigest},
		{"malformed body", "/v1/place", []byte(`{"k":`),
			http.StatusBadRequest, CodeBadJSON},
		{"bad placement", "/v1/evaluate",
			mustMarshal(t, EvaluateRequest{ProblemSpec: fig4Spec(t), Placement: []graph.NodeID{99}}),
			http.StatusUnprocessableEntity, CodeBadPlacement},
		{"unknown endpoint", "/v1/nope", []byte(`{}`),
			http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code := postErrorCode(t, front.URL+tc.path, tc.body)
			if status != tc.wantStatus || code != tc.wantCode {
				t.Errorf("status %d code %q, want %d %q", status, code, tc.wantStatus, tc.wantCode)
			}
		})
	}
}

// TestRouterIdenticalAnswerToSingleWorker is the scale-out bit-identity
// gate: for every algorithm, the routed answer equals the single fresh
// engine's answer at Float64bits precision.
func TestRouterIdenticalAnswerToSingleWorker(t *testing.T) {
	_, front, _, _ := newTestCluster(t, 3, Config{})
	spec := fig4Spec(t)
	for _, algo := range []string{"algorithm1", "algorithm2", "combined", "lazy"} {
		_, single := newTestServer(t, Config{})
		body := mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: 2, Algo: algo})
		status, routed := postJSON(t, front.URL+"/v1/place", body)
		if status != http.StatusOK {
			t.Fatalf("%s via router: status %d: %s", algo, status, routed)
		}
		status, direct := postJSON(t, single.URL+"/v1/place", body)
		if status != http.StatusOK {
			t.Fatalf("%s direct: status %d: %s", algo, status, direct)
		}
		var a, b PlaceResponse
		if err := json.Unmarshal(routed, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(direct, &b); err != nil {
			t.Fatal(err)
		}
		if err := core.SamePlacement(placeOf(&b), placeOf(&a)); err != nil {
			t.Fatalf("%s: routed vs direct: %v", algo, err)
		}
	}
}

// TestRoutingKeyIsBaseDigest: for every golden request and its
// key-reordered and re-whitespaced twins, the router's key for the full
// body is the problem's base digest from the golden response, and
// by-reference requests on that digest (plain and base@seq) pick the same
// backend as the full body.
func TestRoutingKeyIsBaseDigest(t *testing.T) {
	r := newTestRouter(t)
	for _, ep := range []string{"place", "evaluate", "detour"} {
		body, err := os.ReadFile("testdata/" + ep + "_fig4_request.json")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := os.ReadFile("testdata/" + ep + "_fig4_response.json")
		if err != nil {
			t.Fatal(err)
		}
		var golden struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(resp, &golden); err != nil || golden.Digest == "" {
			t.Fatalf("%s: golden response digest: %v", ep, err)
		}
		var members map[string]json.RawMessage
		if err := json.Unmarshal(body, &members); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(members) // keys sorted, whitespace dropped
		if err != nil {
			t.Fatal(err)
		}
		var spaced bytes.Buffer
		if err := json.Indent(&spaced, reordered, " \r\n", "\t  "); err != nil {
			t.Fatal(err)
		}
		owner, ok := r.Owner(golden.Digest)
		if !ok {
			t.Fatal("no live owner")
		}
		for name, twin := range map[string][]byte{"golden": body, "reordered": reordered, "spaced": spaced.Bytes()} {
			if key := r.routingKey(twin); key != golden.Digest {
				t.Errorf("%s %s: routing key %q, want base digest %q", ep, name, key, golden.Digest)
			}
		}
		for _, ref := range []string{golden.Digest, golden.Digest + "@3"} {
			refBody := []byte(`{"digest":"` + ref + `","k":1}`)
			if got, _ := r.Owner(r.routingKey(refBody)); got != owner {
				t.Errorf("%s: reference %q routes to %s, full body to %s", ep, ref, got, owner)
			}
		}
	}
}

// TestRoutingKeyNestedEnvelope: the router follows a job envelope exactly
// one level, as workers read it. A deeper nesting, which every shard
// rejects, routes by its own bytes, in time linear in the body: a 9,000
// level body routes in well under 100 ms.
func TestRoutingKeyNestedEnvelope(t *testing.T) {
	r := newTestRouter(t)
	if key := r.routingKey([]byte(`{"kind":"place","request":{"digest":"rapd2-ab@3","k":1}}`)); key != "rapd2-ab" {
		t.Errorf("one-level envelope routes by %q, want the inner base digest", key)
	}
	twoLevel := []byte(`{"kind":"place","request":{"request":{"digest":"rapd2-ab","k":1}}}`)
	if key := r.routingKey(twoLevel); key != string(twoLevel) {
		t.Errorf("two-level envelope routes by %q, want its raw bytes", key)
	}
	srv := New(Config{})
	job, apiErr := decodeJobRequest(twoLevel)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if _, apiErr := jobKinds[job.Kind](srv, job.Request); apiErr == nil || apiErr.Status != http.StatusUnprocessableEntity {
		t.Errorf("worker accepted a two-level envelope: %v", apiErr)
	}

	const depth = 9000
	deep := []byte(strings.Repeat(`{"request":`, depth) + `{"digest":"rapd2-ab","k":1}` + strings.Repeat("}", depth))
	start := time.Now()
	key := r.routingKey(deep)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("routing a %d-level envelope took %v", depth, elapsed)
	}
	if key != string(deep) {
		t.Errorf("%d-level envelope does not route by its raw bytes", depth)
	}
}
