package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"roadside/internal/geo"
)

// The reflection codec below is the interchange format's reference
// implementation, kept as the differential oracle of the wire codec in
// io.go: decoding must agree with it on acceptance and on every decoded
// value, and encoding must match it byte for byte.

type oracleGraph struct {
	Nodes []geo.Point  `json:"nodes"`
	Edges []oracleEdge `json:"edges"`
}

type oracleEdge struct {
	From   NodeID  `json:"from"`
	To     NodeID  `json:"to"`
	Weight float64 `json:"weight"`
}

func oracleWriteJSON(g *Graph) ([]byte, error) {
	jg := oracleGraph{Nodes: g.Points(), Edges: make([]oracleEdge, 0, g.NumEdges())}
	for u := 0; u < g.NumNodes(); u++ {
		g.ForEachOut(NodeID(u), func(v NodeID, wt float64) bool {
			jg.Edges = append(jg.Edges, oracleEdge{From: NodeID(u), To: v, Weight: wt})
			return true
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func oracleDecodeJSON(data []byte) (*Graph, error) {
	var jg oracleGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	b := NewBuilder(len(jg.Nodes), len(jg.Edges))
	for _, p := range jg.Nodes {
		b.AddNode(p)
	}
	for _, e := range jg.Edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// checkAgainstOracle asserts DecodeJSON and the oracle agree on data and
// that WriteJSON of the decoded graph is the oracle's encoding.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	g, err := DecodeJSON(data)
	want, werr := oracleDecodeJSON(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: DecodeJSON err %v, oracle err %v", data, err, werr)
	}
	if err != nil {
		return
	}
	var got bytes.Buffer
	if err := g.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := oracleWriteJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBytes) {
		t.Fatalf("%q: decoded graphs differ:\n%s\n%s", data, got.Bytes(), wantBytes)
	}
}

func TestCodecMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		g := randomConnected(rng, 2+rng.Intn(40), rng.Intn(80))
		wantBytes, err := oracleWriteJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := g.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantBytes) {
			t.Fatalf("graph %d: WriteJSON differs from the oracle encoder", i)
		}
		checkAgainstOracle(t, wantBytes)
	}
	for _, c := range []string{
		`{"Nodes":[{"X":1e-7,"y":-0}],"EDGES":[],"weight":[1]}`,
		`{"nodes":[{"x":0,"y":0},{"x":1,"y":1e21}],"edges":[{"from":0,"to":1,"weight":5e-7}],"edges":[{"to":0}]}`,
		`{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":0,"to":1,"weight":2},{"from":0,"to":1,"weight":1}]}`,
		`{"nodes":[{"x":0,"y":0}],"nodes":[null,{"x":2}]}`,
		`{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":0,"to":1,"weight":1e400}]}`,
		`{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":2147483648,"to":1,"weight":1}]}`,
		`{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":0.5,"to":1,"weight":1}]}`,
		`{"nodes":null}`, `null`, `[]`, `{"nodes":[{"x":"1"}]}`,
	} {
		checkAgainstOracle(t, []byte(c))
	}
}

// TestReadJSONRejectsTrailingData: a file holding a graph followed by
// anything but whitespace is malformed, not a graph.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	const g = `{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":0,"to":1,"weight":1},{"from":1,"to":0,"weight":1}]}`
	if _, err := ReadJSON(strings.NewReader(g + " \n\t\r\n")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"garbage", "{}", " 1", "\n" + g} {
		if _, err := ReadJSON(strings.NewReader(g + tail)); err == nil {
			t.Errorf("trailing %q accepted", tail)
		}
	}
}

func TestAppendJSONRejectsNonFiniteCoordinates(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := NewBuilder(2, 2)
		b.AddNode(geo.Pt(0, 0))
		b.AddNode(geo.Pt(1, bad))
		if err := b.AddStreet(0, 1, 1); err != nil {
			t.Fatal(err)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.AppendJSON(nil); err == nil {
			t.Errorf("AppendJSON accepted coordinate %v", bad)
		}
		if err := g.WriteJSON(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Errorf("WriteJSON of coordinate %v: err %v", bad, err)
		}
	}
}
