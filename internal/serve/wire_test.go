package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"roadside/internal/core"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// FuzzWireDecode is the differential check of the one-walk request
// decoders against the encoding/json oracle in oracle_test.go. For every
// body, each endpoint decoder, the job envelope decoder and the router's
// routing key must agree with the oracle: the same HTTP status and error
// code on rejection, and on acceptance the same decoded fields (compared
// by %#v, which tells every float bit pattern apart) and the same problem
// digest. Seeds: the corpora and seed bodies of the request, graph and
// flow fuzzers plus hand-written wire corners.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	r := newTestRouter(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireDecode(t, r, body)
	})
}

func newTestRouter(tb testing.TB) *Router {
	tb.Helper()
	r, err := NewRouter(RouterConfig{Backends: []Backend{
		{Name: "w0", URL: "http://127.0.0.1:1"}, {Name: "w1", URL: "http://127.0.0.1:2"},
		{Name: "w2", URL: "http://127.0.0.1:3"}, {Name: "w3", URL: "http://127.0.0.1:4"},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// TestWireDecodeSeeds runs the differential check over every seed, so the
// plain test suite holds the equivalence on them without fuzzing.
func TestWireDecodeSeeds(t *testing.T) {
	r := newTestRouter(t)
	for _, seed := range wireSeeds(t) {
		checkWireDecode(t, r, seed)
	}
}

func checkWireDecode(t *testing.T, r *Router, body []byte) {
	t.Helper()
	{
		req, p, apiErr := decodePlaceRequest(body)
		oreq, op, oErr := oracleDecodePlaceRequest(body)
		sameDecode(t, "place", body, req, oreq, p, op, apiErr, oErr)
	}
	{
		req, p, apiErr := decodeEvaluateRequest(body)
		oreq, op, oErr := oracleDecodeEvaluateRequest(body)
		sameDecode(t, "evaluate", body, req, oreq, p, op, apiErr, oErr)
	}
	{
		req, p, apiErr := decodeDetourRequest(body)
		oreq, op, oErr := oracleDecodeDetourRequest(body)
		sameDecode(t, "detour", body, req, oreq, p, op, apiErr, oErr)
	}
	{
		req, p, apiErr := decodeBatchRequest(body, 64)
		oreq, op, oErr := oracleDecodeBatchRequest(body, 64)
		sameDecode(t, "batch", body, req, oreq, p, op, apiErr, oErr)
	}
	{
		req, ops, apiErr := decodeUpdateRequest(body)
		oreq, oops, oErr := oracleDecodeUpdateRequest(body)
		sameDecode(t, "update", body, req, oreq, nil, nil, apiErr, oErr)
		sameDecode(t, "update ops", body, ops, oops, nil, nil, apiErr, oErr)
	}
	{
		req, apiErr := decodeJobRequest(body)
		oreq, oErr := oracleDecodeJobRequest(body)
		sameDecode(t, "job", body, req, oreq, nil, nil, apiErr, oErr)
		if apiErr == nil && req.Kind == "place" {
			ireq, p, iErr := decodePlaceRequest(req.Request)
			oireq, op, oiErr := oracleDecodePlaceRequest(oreq.Request)
			sameDecode(t, "job place", body, ireq, oireq, p, op, iErr, oiErr)
		}
		if apiErr == nil && req.Kind == "batch" {
			ireq, p, iErr := decodeBatchRequest(req.Request, 64)
			oireq, op, oiErr := oracleDecodeBatchRequest(oreq.Request, 64)
			sameDecode(t, "job batch", body, ireq, oireq, p, op, iErr, oiErr)
		}
	}
	if got, want := r.routingKey(body), oracleRoutingKey(body); got != want {
		t.Fatalf("routing key of %q: wire %q, oracle %q", body, got, want)
	}
}

// sameDecode fails t unless the wire decoder and the oracle rejected body
// with the same status and code, or both accepted it with identical
// decoded values and problems.
func sameDecode(t *testing.T, what string, body []byte, got, want any, p *problem, wantP *core.Problem, apiErr, wantErr *APIError) {
	t.Helper()
	if (apiErr == nil) != (wantErr == nil) ||
		(apiErr != nil && (apiErr.Status != wantErr.Status || apiErr.Code != wantErr.Code)) {
		t.Fatalf("%s %q: wire error %v, oracle error %v", what, body, apiErr, wantErr)
	}
	if apiErr != nil {
		return
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%s %q: decoded values differ:\nwire   %s\noracle %s", what, body, g, w)
	}
	if (p == nil) != (wantP == nil) {
		t.Fatalf("%s %q: wire problem %v, oracle problem %v", what, body, p, wantP)
	}
	if p == nil {
		return
	}
	d, err := p.digest()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := core.ProblemDigest(wantP)
	if err != nil {
		t.Fatal(err)
	}
	if d != wd || p.base.K != wantP.K || p.base.Shop != wantP.Shop {
		t.Fatalf("%s %q: problems differ: digest %s k=%d vs oracle %s k=%d", what, body, d, p.base.K, wd, wantP.K)
	}
}

// wireSeeds gathers the request fuzzers' seeds, the checked-in corpora of
// the request, graph and flow fuzzers (graph and flow entries embedded in
// an otherwise valid place body), and hand-written corners of the wire
// grammar.
func wireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := append(append(serveSeeds(tb), batchSeeds(tb)...), jobSeeds(tb)...)
	seeds = append(seeds, readCorpus(tb, "testdata/fuzz/FuzzServeRequest")...)

	spec, err := ProblemSpecOf(testutil.Fig4Problem(tb, utility.Linear{D: 10}))
	if err != nil {
		tb.Fatal(err)
	}
	g, fl := string(spec.Graph), string(spec.Flows)
	place := func(graph, flows, rest string) []byte {
		return []byte(`{"graph":` + graph + `,"flows":` + flows + `,"utility":"linear","utility_d":10,"shop":` +
			strconv.Itoa(int(spec.Shop)) + rest + `}`)
	}
	for _, entry := range readCorpus(tb, "../graph/testdata/fuzz/FuzzGraphJSONRoundTrip") {
		seeds = append(seeds, place(string(entry), fl, `,"k":2`))
	}
	for _, entry := range readCorpus(tb, "../flow/testdata/fuzz/FuzzFlowIO") {
		seeds = append(seeds, place(g, string(entry), `,"k":2`))
	}

	valid := place(g, fl, `,"k":2,"algo":"lazy","candidates":[2,3]`)
	var indented bytes.Buffer
	if err := json.Indent(&indented, valid, "\n\t ", "\t"); err != nil {
		tb.Fatal(err)
	}
	shop := strconv.Itoa(int(spec.Shop))
	seeds = append(seeds,
		valid,
		indented.Bytes(),
		// Reordered and case-folded keys.
		[]byte(`{"ALGO":"combined","K":3,"Flows":`+fl+`,"Utility_D":10,"UTILITY":"linear","Shop":`+shop+`,"GRAPH":`+g+`}`),
		[]byte(`{"k":1,"shop":`+shop+`,"utility":"linear","utility_d":10,"flows":`+fl+`,"graph":`+g+`,"k":2}`),
		// Null and duplicate members.
		place("null", fl, `,"k":2`),
		place(g, "null", `,"k":2`),
		place(g, fl, `,"k":2,"candidates":[1,2,3],"candidates":[null,4]`),
		place(g, fl, `,"k":2,"graph":null`),
		// Escaped and HTML-special IDs, int32 overflow, out-of-range floats.
		place(g, `[{"id":"f\n<1>&\ud800","path":[0,1],"volume":1,"alpha":0.5}]`, `,"k":2`),
		place(g, fl, `,"k":2,"shop":2147483648`),
		place(g, fl, `,"k":2,"extra_shops":[-2147483649]`),
		place(g, fl, `,"k":9223372036854775808`),
		place(g, fl, `,"k":2,"utility_d":1e400`),
		place(g, fl, `,"k":2,"timeout_ms":-1e400`),
		place(`{"nodes":[{"x":1e400,"y":0}],"edges":[]}`, fl, `,"k":2`),
		place(g, fl, `,"k":2,"placement":[0],"nodes":[1]`),
		[]byte(`{"digest":"rapd1-00@2","updates":[{"op":"add","id":"n","path":[0,1],"volume":2,"alpha":0.5},`+
			`{"op":"set_volume","flow":0,"volume":1e-7},{"op":"remove","flow":1},{"op":"nope"}]}`),
		[]byte(`{"digest":"rapd1-00","updates":[{"op":"set_volume","flow":0,"volume":3}],"updates":[{"flow":1}]}`),
		[]byte(`{"kind":"batch","request":{"digest":"rapd1-00@1","items":[{"k":1},{"K":2,"Algo":"lazy"}]}}`),
		[]byte(`{"kind":"place","request":null}`),
		[]byte(`{"request":{"digest":"rapd1-00@x","k":1},"kind":"place","timeout_ms":5}`),
		[]byte(`{"digest":"rapd1-00@x","k":1}`),
		[]byte(`{"digest":"rapd1-00","k":1} trailing`),
		// Nested job envelopes: workers and the router read one level.
		[]byte(`{"kind":"place","request":{"request":{"digest":"rapd1-00","k":1}}}`),
		[]byte(`{"kind":"batch","request":{"request":{"request":null}},"timeout_ms":5}`),
		[]byte(`{"request":{"request":{"request":{"digest":"rapd1-00@2"}}}}`),
		[]byte(`{"request":{"request":[1,}}}`),
		[]byte(`{"request":{"request":{"k":1},"digest":"rapd1-00"}}`),
		[]byte(`{"kind":"place","request":{"request":{"k":1},"graph":`+g+`}}`),
		[]byte(strings.Repeat(`{"request":`, 64)+`{"digest":"rapd1-00","k":1}`+strings.Repeat("}", 64)),
	)
	return seeds
}

// readCorpus loads the []byte entries of a checked-in fuzz corpus
// directory ("go test fuzz v1" files).
func readCorpus(tb testing.TB, dir string) [][]byte {
	tb.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, fi := range files {
		data, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			tb.Fatalf("%s: not a one-value []byte corpus file", fi.Name())
		}
		v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", fi.Name(), err)
		}
		out = append(out, []byte(v))
	}
	return out
}

// BenchmarkWireDecode times one full-problem /v1/place body of a
// Seattle-size city (about 440 intersections, 120 bus-route flows) through
// the wire decoder, the wire decoder plus the digest (all a cache hit does
// before its solve; no flow-set index), the encoding/json oracle, and the
// router's routing key, which decodes and digests the problem.
func BenchmarkWireDecode(b *testing.B) {
	spec, err := ProblemSpecOf(seattleProblem(b))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: 5, Algo: "lazy"})
	if err != nil {
		b.Fatal(err)
	}
	r := newTestRouter(b)
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"place", func() error { _, _, apiErr := decodePlaceRequest(body); return apiErrOrNil(apiErr) }},
		{"place-hit", func() error {
			_, p, apiErr := decodePlaceRequest(body)
			if apiErr != nil {
				return apiErr
			}
			_, err := p.digest()
			return err
		}},
		{"place-oracle", func() error { _, _, apiErr := oracleDecodePlaceRequest(body); return apiErrOrNil(apiErr) }},
		{"routing-key", func() error { r.routingKey(body); return nil }},
		{"routing-key-oracle", func() error { oracleRoutingKey(body); return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func apiErrOrNil(e *APIError) error {
	if e == nil {
		return nil
	}
	return e
}
