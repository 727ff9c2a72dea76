package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// seattleProblem is a Seattle-size city (about 440 intersections, 120
// bus-route flows), the size of the load tests' heavy problems.
func seattleProblem(tb testing.TB) *core.Problem {
	tb.Helper()
	city, err := citygen.Generate(citygen.SeattleConfig(), 1)
	if err != nil {
		tb.Fatal(err)
	}
	demand := citygen.DefaultDemand()
	demand.Routes = 120
	routes, err := citygen.GenerateRoutes(city, demand, 2)
	if err != nil {
		tb.Fatal(err)
	}
	flowList, err := citygen.RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		tb.Fatal(err)
	}
	flows, err := flow.NewSet(flowList)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Problem{Graph: city.Graph, Shop: flowList[0].Dest, Flows: flows,
		Utility: utility.Linear{D: 2000}, K: 5}
}

// wireDigests sends p through the wire form as a full-problem /v1/place
// body and returns the router's routing key, the worker's digest of the
// decoded problem, and core.ProblemDigest of the problem the worker builds
// from it on a cache miss.
func wireDigests(t *testing.T, r *Router, p *core.Problem) (route, worker, built string) {
	t.Helper()
	spec, err := ProblemSpecOf(p)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(PlaceRequest{ProblemSpec: spec, K: p.K})
	if err != nil {
		t.Fatal(err)
	}
	_, wp, apiErr := decodePlaceRequest(body)
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	if worker, err = wp.digest(); err != nil {
		t.Fatal(err)
	}
	q, err := wp.build()
	if err != nil {
		t.Fatal(err)
	}
	if built, err = core.ProblemDigest(q); err != nil {
		t.Fatal(err)
	}
	return r.routingKey(body), worker, built
}

// TestProblemDigestWireRoundTrip: a problem and its wire round trip have
// the same digest, so the router and the worker, which digest the decoded
// body without building its flow set, agree with each other, with the
// problem the worker builds, and with a library caller digesting the
// original.
func TestProblemDigestWireRoundTrip(t *testing.T) {
	fig4 := testutil.Fig4Problem(t, utility.Sqrt{D: 6})
	fig4.ExtraShops = []graph.NodeID{3}
	fig4.Candidates = []graph.NodeID{1, 2, 4, 5}
	problems := map[string]*core.Problem{
		"fig4":    fig4,
		"seattle": seattleProblem(t),
		"random":  testutil.RandomProblem(t, rand.New(rand.NewSource(3)), 80, 30, 4, utility.Threshold{D: 20}),
	}
	r := newTestRouter(t)
	for name, p := range problems {
		want, err := core.ProblemDigest(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		route, worker, built := wireDigests(t, r, p)
		if route != want || worker != want || built != want {
			t.Errorf("%s: after the wire round trip routing key %s, worker %s, built %s; %s before",
				name, route, worker, built, want)
		}
	}
}

// fuzzProblem builds a problem on a ring of 2..9 nodes whose coordinates
// are arbitrary float64 bit patterns read from coords (NaN, ±Inf, -0 and
// subnormals included) and whose flows walk the ring, one per
// comma-separated ID in ids. It reports false when the fuzzed volume or
// alpha is not a valid flow's.
func fuzzProblem(t *testing.T, coords []byte, ids string, volume, alpha float64, shape uint8) (*core.Problem, bool) {
	n := 2 + int(shape%8)
	next := func() float64 {
		var b [8]byte
		c := copy(b[:], coords)
		coords = coords[c:]
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	b := graph.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddNode(geo.Pt(next(), next()))
	}
	for i := 0; i < n; i++ {
		w := 1 + float64((int(shape)+7*i)%13)/4
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var fl []flow.Flow
	for j, id := range strings.Split(ids, ",") {
		path := make([]graph.NodeID, 2+(j+int(shape>>3))%(2*n))
		for k := range path {
			path[k] = graph.NodeID((j + k) % n)
		}
		f, err := flow.New(id, path, volume, alpha)
		if err != nil {
			return nil, false
		}
		fl = append(fl, f)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Problem{Graph: g, Shop: graph.NodeID(int(shape>>4) % n), Flows: fs, Utility: utility.Linear{D: 10}, K: 1}
	if shape&0x80 != 0 {
		p.Candidates = []graph.NodeID{0, graph.NodeID(n - 1)}
	}
	return p, true
}

// FuzzProblemDigest: a problem with finite coordinates has the same digest
// after the wire round trip, flow IDs that are not valid UTF-8 included;
// one with a NaN or infinite coordinate has no digest and no wire form.
func FuzzProblemDigest(f *testing.F) {
	f.Add([]byte{}, "a,b", 2.0, 0.5, uint8(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3}, "ab,c", 1e-7, 1.0, uint8(0x9c))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f}, "x", 3.0, 0.0, uint8(1))  // NaN x
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff}, "y", 3.0, 0.25, uint8(7)) // -Inf x
	f.Add([]byte{1}, "\xff,a\xed\xa0\x80,\xe2\x82", 5.0, 0.75, uint8(0x42))
	r := newTestRouter(f)
	f.Fuzz(func(t *testing.T, coords []byte, ids string, volume, alpha float64, shape uint8) {
		p, ok := fuzzProblem(t, coords, ids, volume, alpha, shape)
		if !ok {
			return
		}
		finite := true
		for i := 0; i < p.Graph.NumNodes(); i++ {
			pt := p.Graph.Point(graph.NodeID(i))
			for _, x := range []float64{pt.X, pt.Y} {
				finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
			}
		}
		want, err := core.ProblemDigest(p)
		if !finite {
			if err == nil {
				t.Fatalf("digest %s of a problem with a non-finite coordinate", want)
			}
			if _, err := ProblemSpecOf(p); err == nil {
				t.Fatal("wire form of a problem with a non-finite coordinate")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if route, worker, built := wireDigests(t, r, p); route != want || worker != want || built != want {
			t.Fatalf("after the wire round trip routing key %s, worker %s, built %s; %s before",
				route, worker, built, want)
		}
	})
}
