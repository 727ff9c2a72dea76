package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"roadside/internal/citygen"
	"roadside/internal/core"
	"roadside/internal/flow"
	"roadside/internal/geo"
	"roadside/internal/graph"
	"roadside/internal/model"
	"roadside/internal/testutil"
	"roadside/internal/utility"
)

// refProblemDigest is the reference encoder of the rapd2 digest input:
// every section spelled out as explicit little-endian structs written
// with encoding/binary, into one buffer hashed at the end. ProblemDigest
// streams the same bytes through a fixed-size buffer; the two must agree
// on every problem.
func refProblemDigest(tb testing.TB, p *core.Problem) (string, error) {
	tb.Helper()
	var buf bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			tb.Fatal(err)
		}
	}
	type node struct{ X, Y uint64 }
	type edge struct {
		From, To uint32
		W        uint64
	}
	type weights struct{ Volume, Alpha uint64 }
	str := func(s string) {
		put(uint64(len(s)))
		buf.WriteString(s)
	}
	ids := func(vs []graph.NodeID) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(int64(v)))
		}
	}

	g := p.Graph
	buf.WriteByte('g')
	put(uint64(g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		pt := g.Point(graph.NodeID(i))
		if math.IsNaN(pt.X) || math.IsInf(pt.X, 0) || math.IsNaN(pt.Y) || math.IsInf(pt.Y, 0) {
			return "", errors.New("non-finite coordinate")
		}
		put(node{math.Float64bits(pt.X), math.Float64bits(pt.Y)})
	}
	put(uint64(g.NumEdges()))
	for u := 0; u < g.NumNodes(); u++ {
		g.ForEachOut(graph.NodeID(u), func(v graph.NodeID, w float64) bool {
			put(edge{uint32(u), uint32(v), math.Float64bits(w)})
			return true
		})
	}

	buf.WriteByte('f')
	put(uint64(p.Flows.Len()))
	for i := 0; i < p.Flows.Len(); i++ {
		f := p.Flows.At(i)
		// IDs are hashed as the wire carries them: through encoding/json.
		enc, err := json.Marshal(f.ID)
		if err != nil {
			tb.Fatal(err)
		}
		var id string
		if err := json.Unmarshal(enc, &id); err != nil {
			tb.Fatal(err)
		}
		str(id)
		put(uint64(len(f.Path)))
		path := make([]uint32, len(f.Path))
		for j, v := range f.Path {
			path[j] = uint32(v)
		}
		put(path)
		put(weights{math.Float64bits(f.Volume), math.Float64bits(f.Alpha)})
	}

	buf.WriteByte('u')
	str(p.Utility.Name())
	put(math.Float64bits(p.Utility.Threshold()))
	buf.WriteByte('s')
	put(uint64(int64(p.Shop)))
	ids(p.ExtraShops)
	buf.WriteByte('c')
	ids(p.Candidates)
	if p.Model != nil {
		buf.WriteByte('m')
		str(p.Model.Name())
		str(p.Model.Params())
	}
	sum := sha256.Sum256(buf.Bytes())
	return "rapd2-" + hex.EncodeToString(sum[:]), nil
}

// seattleProblem is a Seattle-config city with 120 bus routes as flows,
// the size of the query server's heavy load problems.
func seattleProblem(tb testing.TB, seed int64) *core.Problem {
	tb.Helper()
	city, err := citygen.Generate(citygen.SeattleConfig(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	demand := citygen.DefaultDemand()
	demand.Routes = 120
	routes, err := citygen.GenerateRoutes(city, demand, seed+1)
	if err != nil {
		tb.Fatal(err)
	}
	fl, err := citygen.RoutesToFlows(routes, 100, 0.001)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Problem{Graph: city.Graph, Shop: fl[0].Dest, Flows: fs, Utility: utility.Linear{D: 2000}, K: 5}
}

// megaProblem is a citygen.Mega city with hub-local flows.
func megaProblem(tb testing.TB, nodes, flows int) *core.Problem {
	tb.Helper()
	city, err := citygen.Mega(nodes, 7)
	if err != nil {
		tb.Fatal(err)
	}
	demand := citygen.LocalDemandConfig{Flows: flows, Hubs: 16, MinHops: 8, MaxHops: 48, VolumeMean: 3, Alpha: 1}
	fl, err := citygen.GenerateLocalFlows(city, demand, 8)
	if err != nil {
		tb.Fatal(err)
	}
	fs, err := flow.NewSet(fl)
	if err != nil {
		tb.Fatal(err)
	}
	return &core.Problem{Graph: city.Graph, Shop: fl[0].Dest, Flows: fs, Utility: utility.Linear{D: 20_000}, K: 10}
}

// TestProblemDigestMatchesReference: the streamed digest equals the
// reference encoder's on Fig. 4 (plain, with extra shops and a candidate
// list, and with flow IDs that are not valid UTF-8), a Seattle-config
// city, a 20k-node mega city and one problem per objective model.
func TestProblemDigestMatchesReference(t *testing.T) {
	fig4 := testutil.Fig4Problem(t, utility.Linear{D: 6})
	branched := *fig4
	branched.ExtraShops = []graph.NodeID{3, 5}
	branched.Candidates = []graph.NodeID{1, 2, 4}
	g, fs := testutil.Fig4(t)
	fl := fs.Flows()
	fl[0].ID, fl[1].ID, fl[2].ID = "\xff", "a\xed\xa0\x80b", "\xe2\x82"
	mangled, err := flow.NewSet(fl)
	if err != nil {
		t.Fatal(err)
	}
	problems := map[string]*core.Problem{
		"fig4":     fig4,
		"branched": &branched,
		"utf8":     {Graph: g, Shop: 0, Flows: mangled, Utility: utility.Threshold{D: 3}, K: 1},
		"seattle":  seattleProblem(t, 1),
		"mega":     megaProblem(t, 20_000, 2_000),
	}
	rng := rand.New(rand.NewSource(2015))
	for _, m := range []core.ObjectiveModel{
		model.Probabilistic{Reception: 0.8},
		model.Resistance{Scale: 50},
		model.Capacity{RangeFeet: 500, SpeedFtPerSec: 100, DataRateBps: 4e4, AdSizeBits: 1e6, MinCompletion: 0.3},
	} {
		p := testutil.RandomProblem(t, rng, 60, 40, 6, utility.Sqrt{D: 15})
		p.Model = m
		problems["model-"+m.Name()] = p
	}
	for name, p := range problems {
		got, err := core.ProblemDigest(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refProblemDigest(t, p)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: ProblemDigest %s, reference %s", name, got, want)
		}
	}
}

// The frozen rapd2 digests of Fig. 4 and the seed-1 Seattle-config
// problem. Any change to the digest's input encoding changes them; such a
// change must also bump core.DigestVersion.
const (
	frozenFig4Digest    = "rapd2-507f5078e972b4b7c0f74fe714d5f7af425297e25cd4a305cd5df46e7add2c69"
	frozenSeattleDigest = "rapd2-378a9e6412b293f565e001ea2712e7fd19240a214e0c8d37b39ee43f55fe5c55"
)

func TestFrozenProblemDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *core.Problem
		want string
	}{
		{"fig4", testutil.Fig4Problem(t, utility.Linear{D: 6}), frozenFig4Digest},
		{"seattle", seattleProblem(t, 1), frozenSeattleDigest},
	} {
		got, err := core.ProblemDigest(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, frozen %s: the digest encoding changed", tc.name, got, tc.want)
		}
	}
}

// lineProblem builds a problem on a directed line 0 -> 1 -> ... with the
// given coordinates and edge weights (one per edge) and one flow per
// (id, path, volume, alpha) entry.
func lineProblem(t *testing.T, pts []geo.Point, weights []float64, flows []flow.Flow) *core.Problem {
	t.Helper()
	b := graph.NewBuilder(len(pts), len(weights))
	for _, p := range pts {
		b.AddNode(p)
	}
	for i, w := range weights {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := flow.NewSet(flows)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Problem{Graph: g, Shop: 0, Flows: fs, Utility: utility.Linear{D: 10}, K: 1}
}

func mustFlow(t *testing.T, id string, path []graph.NodeID, volume, alpha float64) flow.Flow {
	t.Helper()
	f, err := flow.New(id, path, volume, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestProblemDigestInjective: flipping one bit of any hashed float, or
// moving a byte across the boundary of two adjacent flow IDs or paths,
// changes the digest.
func TestProblemDigestInjective(t *testing.T) {
	type spec struct {
		pts     []geo.Point
		weights []float64
		flows   []flow.Flow
	}
	base := func() spec {
		return spec{
			pts:     []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0), geo.Pt(4, 0)},
			weights: []float64{1, 1, 1, 1},
			flows: []flow.Flow{
				mustFlow(t, "ab", []graph.NodeID{0, 1, 2}, 3, 0.5),
				mustFlow(t, "c", []graph.NodeID{2, 3, 4}, 2, 1),
			},
		}
	}
	flip := func(x *float64) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1) }
	cases := map[string]func(s *spec){
		"coordinate -0": func(s *spec) { s.pts[0].X = math.Copysign(0, -1) },
		"coordinate y":  func(s *spec) { flip(&s.pts[3].Y) },
		"edge weight":   func(s *spec) { flip(&s.weights[2]) },
		"volume":        func(s *spec) { flip(&s.flows[1].Volume) },
		"alpha":         func(s *spec) { flip(&s.flows[0].Alpha) },
		"id boundary": func(s *spec) {
			s.flows[0].ID, s.flows[1].ID = "a", "bc"
		},
		"path boundary": func(s *spec) {
			s.flows[0] = mustFlow(t, "ab", []graph.NodeID{0, 1}, 3, 0.5)
			s.flows[1] = mustFlow(t, "c", []graph.NodeID{2, 2, 3, 4}, 2, 1)
		},
	}
	digest := func(s spec) string {
		d, err := core.ProblemDigest(lineProblem(t, s.pts, s.weights, s.flows))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := digest(base())
	for name, mutate := range cases {
		s := base()
		mutate(&s)
		if got := digest(s); got == want {
			t.Errorf("%s: digest unchanged (%s)", name, got)
		}
	}
}

// BenchmarkProblemDigest digests a Seattle-config problem and a
// citygen.Mega(100_000) problem with 10k hub-local flows. Allocations per
// digest must not grow with the problem.
func BenchmarkProblemDigest(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    func() *core.Problem
	}{
		{"seattle", func() *core.Problem { return seattleProblem(b, 1) }},
		{"mega-100k", func() *core.Problem { return megaProblem(b, 100_000, 10_000) }},
	} {
		p := bc.p()
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ProblemDigest(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
