package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roadside/internal/core"
	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures in testdata/")

// newTestServer builds a Server and serves it over a real loopback
// listener so the battery exercises the full net/http path.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fig4Spec returns the paper's Fig. 4 worked example in wire form.
func fig4Spec(t *testing.T) ProblemSpec {
	t.Helper()
	spec, err := ProblemSpecOf(testutil.Fig4Problem(t, utility.Linear{D: 10}))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// fixture reads testdata/name, regenerating it first under -update.
func fixture(t *testing.T, name string, generate func() []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, generate(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/serve -update to regenerate)", err)
	}
	return b
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// placeOf and itemOf wrap served placements for core.SamePlacement.
func placeOf(r *PlaceResponse) *core.Placement {
	return &core.Placement{Nodes: r.Nodes, Attracted: r.Attracted, StepGains: r.StepGains, StepKinds: r.StepKinds}
}

func itemOf(r *BatchItemResult) *core.Placement {
	return &core.Placement{Nodes: r.Nodes, Attracted: r.Attracted, StepGains: r.StepGains, StepKinds: r.StepKinds}
}

func postJSON(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	return resp.StatusCode, data
}

// TestEndpointGoldens pins both directions of the wire format: the
// checked-in request fixture is POSTed verbatim and the response must
// match the checked-in golden byte-for-byte (the digest is content-
// addressed and the solvers are deterministic, so this is stable).
func TestEndpointGoldens(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path string
		request    func() []byte
	}{
		{"place_fig4", "/v1/place", func() []byte {
			return mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "algorithm2"})
		}},
		{"evaluate_fig4", "/v1/evaluate", func() []byte {
			return mustMarshal(t, EvaluateRequest{ProblemSpec: fig4Spec(t), Placement: []graph.NodeID{2, 4}})
		}},
		{"detour_fig4", "/v1/detour", func() []byte {
			return mustMarshal(t, DetourRequest{ProblemSpec: fig4Spec(t), Nodes: []graph.NodeID{2, 4, 5}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reqBody := fixture(t, tc.name+"_request.json", tc.request)
			status, body := postJSON(t, ts.URL+tc.path, reqBody)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			want := fixture(t, tc.name+"_response.json", func() []byte { return body })
			if !bytes.Equal(body, want) {
				t.Errorf("response drifted from golden %s_response.json:\ngot:  %swant: %s",
					tc.name, body, want)
			}
		})
	}
}

// TestPlaceMatchesDirectEngine is the core service contract: the served
// placement is bit-identical to solving the same problem directly with a
// fresh single-threaded engine.
func TestPlaceMatchesDirectEngine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p := testutil.Fig4Problem(t, utility.Linear{D: 10})
	spec, err := ProblemSpecOf(p)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngineWorkers(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Algorithm2Workers(eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: p.K, Algo: "algorithm2"}))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got PlaceResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := core.SamePlacement(want, placeOf(&got)); err != nil {
		t.Fatalf("served vs direct: %v", err)
	}
	wantDigest, err := core.ProblemDigest(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest != wantDigest {
		t.Errorf("served digest %q, ProblemDigest %q", got.Digest, wantDigest)
	}
}

// TestErrorPaths walks every failure mode through the full HTTP stack and
// asserts both the status code and the machine-readable error code.
func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	place := func(mutate func(*PlaceRequest)) []byte {
		req := PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "algorithm2"}
		mutate(&req)
		return mustMarshal(t, req)
	}
	cases := []struct {
		name, method, path string
		body               []byte
		wantStatus         int
		wantCode           string
	}{
		{"malformed body", "POST", "/v1/place", []byte(`{"k":`), http.StatusBadRequest, "bad_json"},
		{"missing graph", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.Graph = nil }),
			http.StatusUnprocessableEntity, "bad_graph"},
		{"missing flows", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.Flows = nil }),
			http.StatusUnprocessableEntity, "bad_flows"},
		{"unknown utility", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.Utility = "parabolic" }),
			http.StatusUnprocessableEntity, "unknown_utility"},
		{"k=0", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.K = 0 }),
			http.StatusUnprocessableEntity, "bad_budget"},
		{"disconnected shop", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.Shop = 99 }),
			http.StatusUnprocessableEntity, "bad_problem"},
		{"unknown algo", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.Algo = "annealing" }),
			http.StatusUnprocessableEntity, "unknown_algo"},
		{"deadline exceeded", "POST", "/v1/place",
			place(func(r *PlaceRequest) { r.TimeoutMS = 1e-6 }),
			http.StatusGatewayTimeout, "deadline_exceeded"},
		{"method not allowed", "GET", "/v1/place", nil,
			http.StatusMethodNotAllowed, "method_not_allowed"},
		{"unknown endpoint", "POST", "/v1/nope", []byte(`{}`),
			http.StatusNotFound, "not_found"},
		{"invalid placement node", "POST", "/v1/evaluate",
			mustMarshal(t, EvaluateRequest{ProblemSpec: fig4Spec(t), Placement: []graph.NodeID{99}}),
			http.StatusUnprocessableEntity, "bad_placement"},
		{"empty detour node set", "POST", "/v1/detour",
			mustMarshal(t, DetourRequest{ProblemSpec: fig4Spec(t)}),
			http.StatusUnprocessableEntity, "bad_nodes"},
		{"invalid detour node", "POST", "/v1/detour",
			mustMarshal(t, DetourRequest{ProblemSpec: fig4Spec(t), Nodes: []graph.NodeID{-1}}),
			http.StatusUnprocessableEntity, "bad_nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not the uniform shape: %v (%s)", err, body)
			}
			if er.Err.Code != tc.wantCode {
				t.Errorf("error code %q, want %q (message %q)", er.Err.Code, tc.wantCode, er.Err.Message)
			}
			if er.Err.Message == "" {
				t.Error("error message is empty")
			}
		})
	}
}

// TestOversizedBody asserts the 413 path under a deliberately small limit.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 64})
	status, body := postJSON(t, ts.URL+"/v1/place", bytes.Repeat([]byte("x"), 1024))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", status, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Err.Code != "body_too_large" {
		t.Errorf("error code %q, want body_too_large", er.Err.Code)
	}
}

// TestCacheHitServesWithoutRebuild is the acceptance criterion for the
// cache-hit path: a repeated problem is served from the LRU (hit > 0,
// builds == 1) and the answer is identical.
func TestCacheHitServesWithoutRebuild(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "algorithm2"})

	status, first := postJSON(t, ts.URL+"/v1/place", body)
	if status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, first)
	}
	status, second := postJSON(t, ts.URL+"/v1/place", body)
	if status != http.StatusOK {
		t.Fatalf("second request: status %d: %s", status, second)
	}

	var r1, r2 PlaceResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cache != CacheMiss {
		t.Errorf("first response cache = %q, want %q", r1.Cache, CacheMiss)
	}
	if r2.Cache != CacheHit {
		t.Errorf("second response cache = %q, want %q", r2.Cache, CacheHit)
	}
	r1.Cache, r2.Cache = "", ""
	if !bytes.Equal(mustMarshal(t, r1), mustMarshal(t, r2)) {
		t.Error("hit-path response differs from build-path response")
	}
	if builds := s.Metrics().Counter("serve.engine.builds").Value(); builds != 1 {
		t.Errorf("serve.engine.builds = %d, want 1", builds)
	}
	if hits := s.Metrics().Counter("serve.cache.hit").Value(); hits < 1 {
		t.Errorf("serve.cache.hit = %d, want > 0", hits)
	}
}

// TestBudgetSharesCachedEngine pins the K-excluded digest: requests for the
// same problem at different budgets hit one cached engine.
func TestBudgetSharesCachedEngine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := fig4Spec(t)
	for i, k := range []int{1, 2, 3} {
		status, body := postJSON(t, ts.URL+"/v1/place",
			mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: k, Algo: "lazy"}))
		if status != http.StatusOK {
			t.Fatalf("k=%d: status %d: %s", k, status, body)
		}
		var r PlaceResponse
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if len(r.Nodes) != k {
			t.Errorf("k=%d: served %d nodes", k, len(r.Nodes))
		}
		wantCache := CacheHit
		if i == 0 {
			wantCache = CacheMiss
		}
		if r.Cache != wantCache {
			t.Errorf("k=%d: cache %q, want %q", k, r.Cache, wantCache)
		}
	}
	if builds := s.Metrics().Counter("serve.engine.builds").Value(); builds != 1 {
		t.Errorf("serve.engine.builds = %d, want 1 across three budgets", builds)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.CacheEntries != 0 {
		t.Errorf("healthz = %+v, want fresh ok server", h)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One real request so the export has content.
	status, body := postJSON(t, ts.URL+"/v1/place",
		mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 1}))
	if status != http.StatusOK {
		t.Fatalf("place: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"serve.engine.builds", "serve.cache.hit", "serve.http.place.requests"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics export lacks %q:\n%s", want, text)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainWaitsForInFlight pins graceful shutdown: a request already being
// served completes normally while Drain blocks, and new requests are
// refused with 503 shutting_down. The in-flight request is held open
// deterministically by stalling its body upload through a pipe.
func TestDrainWaitsForInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := mustMarshal(t, PlaceRequest{ProblemSpec: fig4Spec(t), K: 2, Algo: "algorithm2"})

	pr, pw := io.Pipe()
	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		req, err := http.NewRequest("POST", ts.URL+"/v1/place", pr)
		if err != nil {
			resc <- result{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- result{err: err}
			return
		}
		b, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		resc <- result{status: resp.StatusCode, body: b, err: err}
	}()
	waitFor(t, "request to be in flight", func() bool { return s.inflightN.Load() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })

	// New work is refused while the old request is still in flight.
	status, refused := postJSON(t, ts.URL+"/v1/place", body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503 (%s)", status, refused)
	}
	var er ErrorResponse
	if err := json.Unmarshal(refused, &er); err != nil || er.Err.Code != "shutting_down" {
		t.Fatalf("drain refusal = %s (decode err %v), want shutting_down", refused, err)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a request still in flight", err)
	default:
	}

	// Release the stalled upload: the in-flight request must complete with
	// a full, correct response — not be dropped mid-solve.
	if _, err := pw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", res.status, res.body)
	}
	var pl PlaceResponse
	if err := json.Unmarshal(res.body, &pl); err != nil || len(pl.Nodes) != 2 {
		t.Fatalf("in-flight response truncated: %s (err %v)", res.body, err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}

	// Drain with a dead context reports the context error.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s2 := New(Config{})
	s2.inflight.Add(1)
	defer s2.inflight.Done()
	if err := s2.Drain(expired); err != context.Canceled {
		t.Errorf("Drain with cancelled ctx = %v, want context.Canceled", err)
	}
}
