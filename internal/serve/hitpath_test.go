package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// hitCase is one full-problem endpoint: body wraps a problem section into
// its request, and path is where it is POSTed.
type hitCase struct {
	name, path string
	body       func(t *testing.T, spec ProblemSpec) []byte
}

var hitCases = []hitCase{
	{"place", "/v1/place", func(t *testing.T, spec ProblemSpec) []byte {
		return mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: 2, Algo: "algorithm2"})
	}},
	{"evaluate", "/v1/evaluate", func(t *testing.T, spec ProblemSpec) []byte {
		return mustMarshal(t, EvaluateRequest{ProblemSpec: spec, Placement: []graph.NodeID{2, 4}})
	}},
	{"detour", "/v1/detour", func(t *testing.T, spec ProblemSpec) []byte {
		return mustMarshal(t, DetourRequest{ProblemSpec: spec, Nodes: []graph.NodeID{2, 4, 5}})
	}},
	{"batch", "/v1/batch", func(t *testing.T, spec ProblemSpec) []byte {
		return mustMarshal(t, BatchRequest{ProblemSpec: spec, Items: []BatchItem{{K: 1}, {K: 2, Algo: "lazy"}, {K: 0}}})
	}},
	{"job place", "/v1/jobs", func(t *testing.T, spec ProblemSpec) []byte {
		inner := mustMarshal(t, PlaceRequest{ProblemSpec: spec, K: 3, Algo: "combined"})
		return mustMarshal(t, JobRequest{Kind: "place", Request: inner})
	}},
}

// answer POSTs c's body for spec and returns the status, the error code
// of a rejection, and the answer: the response body, or for a job the
// result of the finished job.
func answer(t *testing.T, url string, c hitCase, spec ProblemSpec) (status int, code string, payload []byte) {
	t.Helper()
	status, body := postJSON(t, url+c.path, c.body(t, spec))
	if status != http.StatusOK {
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: status %d body %s: %v", c.name, status, body, err)
		}
		return status, er.Err.Code, nil
	}
	if c.path != "/v1/jobs" {
		return status, "", body
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = *awaitJob(t, url, st.ID)
	_, body = getJob(t, url, st.ID)
	var done struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &done); err != nil || done.State != JobDone {
		t.Fatalf("%s: job %s: %v", c.name, body, err)
	}
	return status, "", done.Result
}

// cacheOf returns an answer's cache outcome.
func cacheOf(t *testing.T, payload []byte) string {
	t.Helper()
	var r struct {
		Cache string `json:"cache"`
	}
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatal(err)
	}
	return r.Cache
}

// fig4Sibling returns fig4's wire problem after edit changes a copy of it.
func fig4Sibling(t *testing.T, edit func(p *core.Problem)) ProblemSpec {
	t.Helper()
	p := testutil.Fig4Problem(t, utility.Linear{D: 10})
	edit(p)
	spec, err := ProblemSpecOf(p)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFullProblemHitPath: a full-problem body sent twice is answered from
// the cache the second time, bit-identically to the build; a cached
// problem never answers a sibling body that fails validation, which gets
// the code it gets on an empty server; and a sibling differing in one bit
// of one edge weight is a different engine.
func TestFullProblemHitPath(t *testing.T) {
	notWalk := fig4Sibling(t, func(p *core.Problem) {
		flows := p.Flows.Flows()
		f, err := flow.New(flows[0].ID, []graph.NodeID{flows[0].Origin, flows[0].Origin}, flows[0].Volume, flows[0].Alpha)
		if err != nil {
			t.Fatal(err)
		}
		flows[0] = f
		if p.Flows, err = flow.NewSet(flows); err != nil {
			t.Fatal(err)
		}
	})
	badShop := fig4Sibling(t, func(p *core.Problem) { p.Shop = graph.NodeID(p.Graph.NumNodes()) })
	weightBit := fig4Sibling(t, func(p *core.Problem) {
		g := p.Graph
		b := graph.NewBuilder(g.NumNodes(), g.NumEdges())
		for v := 0; v < g.NumNodes(); v++ {
			b.AddNode(g.Point(graph.NodeID(v)))
		}
		first := true
		for u := 0; u < g.NumNodes(); u++ {
			g.ForEachOut(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
				if first {
					w, first = math.Float64frombits(math.Float64bits(w)^1), false
				}
				if err := b.AddEdge(graph.NodeID(u), v, w); err != nil {
					t.Fatal(err)
				}
				return true
			})
		}
		var err error
		if p.Graph, err = b.Build(); err != nil {
			t.Fatal(err)
		}
	})
	spec := fig4Spec(t)

	for _, c := range hitCases {
		t.Run(c.name, func(t *testing.T) {
			_, fresh := newTestServer(t, Config{})
			_, ts := newTestServer(t, Config{})
			status, _, miss := answer(t, ts.URL, c, spec)
			if status != http.StatusOK || cacheOf(t, miss) != CacheMiss {
				t.Fatalf("first body: status %d, answer %s; want a miss", status, miss)
			}
			status, _, hit := answer(t, ts.URL, c, spec)
			if status != http.StatusOK || cacheOf(t, hit) != CacheHit {
				t.Fatalf("second body: status %d, answer %s; want a hit", status, hit)
			}
			// Floats print in their shortest round-trip form, so equal
			// bytes are equal bits.
			if asMiss := bytes.Replace(hit, []byte(`"cache":"hit"`), []byte(`"cache":"miss"`), 1); !bytes.Equal(asMiss, miss) {
				t.Errorf("hit answer differs from the build's:\nhit  %s\nmiss %s", hit, miss)
			}

			for name, sib := range map[string]struct {
				spec ProblemSpec
				code string
			}{"path not a walk": {notWalk, CodeBadFlows}, "shop out of range": {badShop, CodeBadProblem}} {
				wantStatus, wantCode, _ := answer(t, fresh.URL, c, sib.spec)
				status, code, _ := answer(t, ts.URL, c, sib.spec)
				if status != http.StatusUnprocessableEntity || code != sib.code || status != wantStatus || code != wantCode {
					t.Errorf("%s after a cached twin: %d %s; on an empty server %d %s; want 422 %s",
						name, status, code, wantStatus, wantCode, sib.code)
				}
			}

			status, _, other := answer(t, ts.URL, c, weightBit)
			if status != http.StatusOK || cacheOf(t, other) != CacheMiss {
				t.Errorf("one weight bit apart: status %d, answer %s; want a miss", status, other)
			}
		})
	}
}

// TestWireDecodeAllocs holds the Seattle body's allocation counts: the
// routing key stays at or under 1,000 allocations, and decoding plus
// digesting it, which is all a cache hit does before the solve, allocates
// less than building the flow set's incidence index alone, so it cannot be
// building one.
func TestWireDecodeAllocs(t *testing.T) {
	spec, err := ProblemSpecOf(seattleProblem(t))
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 5, Algo: "lazy"})
	if err != nil {
		t.Fatal(err)
	}
	r := newTestRouter(t)
	route := testing.AllocsPerRun(10, func() { r.routingKey(body) })
	if route > 1000 {
		t.Errorf("routing key: %.0f allocs, want at most 1000", route)
	}
	_, p, apiErr := decodePlaceRequest(body)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	index := testing.AllocsPerRun(10, func() {
		if _, err := flow.NewSet(p.flows); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(10, func() {
		_, p, apiErr := decodePlaceRequest(body)
		if apiErr != nil {
			t.Fatal(apiErr)
		}
		if _, err := p.digest(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs: routing key %.0f, decode and digest %.0f, incidence index %.0f", route, hit, index)
	if hit >= index {
		t.Errorf("decode and digest: %.0f allocs, the incidence index alone %.0f", hit, index)
	}
}

// TestReadBody: a body is read whole into one buffer sized from its
// Content-Length (a 100 KB problem body costs a handful of allocations, not
// io.ReadAll's regrowth), and bodies above the presize cap, without a
// length or empty read whole too. TestOversizedBody and
// TestRouterBodyReadErrorShape hold its error codes.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 107_000)
	read := func(data []byte, length int64) ([]byte, *APIError) {
		r := httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(data))
		r.ContentLength = length
		return readBody(httptest.NewRecorder(), r, DefaultMaxBody)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		length int64
	}{
		{"sized", body, int64(len(body))},
		{"unsized", body, -1},
		{"above the presize cap", bytes.Repeat([]byte("y"), presizeCap+3), presizeCap + 3},
		{"empty", nil, 0},
	} {
		got, apiErr := read(tc.data, tc.length)
		if apiErr != nil || !bytes.Equal(got, tc.data) || got == nil {
			t.Errorf("%s: read %d bytes (nil %v), %v; want the %d-byte body", tc.name, len(got), got == nil, apiErr, len(tc.data))
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/place", nil)
	r.ContentLength = int64(len(body))
	w, src := httptest.NewRecorder(), bytes.NewReader(nil)
	rc := io.NopCloser(src)
	allocs := testing.AllocsPerRun(10, func() {
		src.Reset(body)
		r.Body = rc
		if _, apiErr := readBody(w, r, DefaultMaxBody); apiErr != nil {
			t.Fatal(apiErr)
		}
	})
	t.Logf("sized read of %d bytes: %.0f allocs", len(body), allocs)
	if allocs > 3 {
		t.Errorf("sized read: %.0f allocs", allocs)
	}
}
