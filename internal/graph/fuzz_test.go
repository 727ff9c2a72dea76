package graph

import (
	"bytes"
	"testing"
)

// FuzzGraphJSONRoundTrip feeds arbitrary bytes through ReadJSON. Decoding
// must agree with the reflection oracle, and the encoding of a decoded
// graph must be the oracle's byte for byte. Inputs that decode must
// survive encode/decode unchanged (canonical form is a fixed point);
// inputs that do not decode must return an error rather than panic.
func FuzzGraphJSONRoundTrip(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"x":0,"y":0},{"x":1,"y":1}],"edges":[{"from":0,"to":1,"weight":5}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"x":-3.5,"y":2e4}],"edges":[]}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0}],"edges":[{"from":0,"to":0,"weight":1}]}`))
	f.Add([]byte(`{"nodes":[{"x":0,"y":0}],"edges":[{"from":9,"to":0,"weight":1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic
		}
		var first bytes.Buffer
		if err := g.WriteJSON(&first); err != nil {
			t.Fatalf("encode of decoded graph failed: %v", err)
		}
		g2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode(encode(g)) failed: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip changed size: %d/%d nodes, %d/%d edges",
				g.NumNodes(), g2.NumNodes(), g.NumEdges(), g2.NumEdges())
		}
		var second bytes.Buffer
		if err := g2.WriteJSON(&second); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
