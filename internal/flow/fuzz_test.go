package flow

import (
	"bytes"
	"testing"
)

// FuzzFlowIO feeds arbitrary bytes through ReadJSON. Decoding must agree
// with the reflection oracle, and the encoding of a decoded set must be
// the oracle's byte for byte. Decodable inputs must round-trip through WriteJSON/ReadJSON to the same canonical bytes;
// everything else must come back as an error, never a panic.
func FuzzFlowIO(f *testing.F) {
	f.Add([]byte(`[{"id":"f1","path":[0,1,2],"volume":10,"alpha":0.5}]`))
	f.Add([]byte(`[{"id":"a","path":[3,2],"volume":1,"alpha":0},{"id":"b","path":[0,5],"volume":2.5,"alpha":1}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":"dup","path":[1,1],"volume":1,"alpha":0.1}]`))
	f.Add([]byte(`[{"id":"neg","path":[0,1],"volume":-4,"alpha":0.1}]`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic
		}
		var first bytes.Buffer
		if err := s.WriteJSON(&first); err != nil {
			t.Fatalf("encode of decoded set failed: %v", err)
		}
		s2, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode(encode(s)) failed: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("round-trip changed flow count: %d vs %d", s.Len(), s2.Len())
		}
		var second bytes.Buffer
		if err := s2.WriteJSON(&second); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
