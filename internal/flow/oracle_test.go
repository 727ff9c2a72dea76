package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"roadside/internal/graph"
)

// The reflection codec below is the interchange format's reference
// implementation, kept as the differential oracle of the wire codec in
// io.go: decoding must agree with it on acceptance and on every decoded
// value, and encoding must match it byte for byte.

type oracleFlow struct {
	ID     string         `json:"id"`
	Path   []graph.NodeID `json:"path"`
	Volume float64        `json:"volume"`
	Alpha  float64        `json:"alpha"`
}

func oracleWriteJSON(s *Set) ([]byte, error) {
	out := make([]oracleFlow, 0, s.Len())
	for _, f := range s.flows {
		out = append(out, oracleFlow{ID: f.ID, Path: f.Path, Volume: f.Volume, Alpha: f.Alpha})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func oracleDecodeJSON(data []byte) (*Set, error) {
	var in []oracleFlow
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	flows := make([]Flow, 0, len(in))
	for _, jf := range in {
		f, err := New(jf.ID, jf.Path, jf.Volume, jf.Alpha)
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	return NewSet(flows)
}

// checkAgainstOracle asserts DecodeJSON and the oracle agree on data and
// that WriteJSON of the decoded set is the oracle's encoding.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	s, err := DecodeJSON(data)
	want, werr := oracleDecodeJSON(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: DecodeJSON err %v, oracle err %v", data, err, werr)
	}
	if err != nil {
		return
	}
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := oracleWriteJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBytes) {
		t.Fatalf("%q: decoded sets differ:\n%s\n%s", data, got.Bytes(), wantBytes)
	}
	if fmt.Sprintf("%#v", s.flows) != fmt.Sprintf("%#v", want.flows) || !reflect.DeepEqual(s.byNode, want.byNode) {
		t.Fatalf("%q: decoded sets differ in fields or index", data)
	}
}

func TestCodecMatchesOracle(t *testing.T) {
	for _, c := range []string{
		`[{"id":"f1","path":[0,1,2],"volume":10,"alpha":0.5}]`,
		`[{"ID":"a","PATH":[3,2],"Volume":1e-7,"alpha":-0},{"id":"<b>","path":[0,5,0,5],"volume":2.5e21,"alpha":1}]`,
		`[{"id":"x","path":[1,2,3],"path":[null,7],"volume":1,"alpha":0.1}]`,
		`[{"id":"x","path":[1,2],"volume":1,"alpha":0.1,"extra":{"k":[1]}}]`,
		`[{"id":"caf` + "\xc3\xa9\xff" + `","path":[1,2],"volume":1,"alpha":0.1}]`,
		`[{"id":"x","path":[1,2],"volume":1e400,"alpha":0.1}]`,
		`[{"id":"x","path":[1,2147483648],"volume":1,"alpha":0.1}]`,
		`[{"id":5,"path":[1,2],"volume":1,"alpha":0.1}]`,
		`[null]`, `null`, `{}`, `[]`, `[{"id":"x","path":[1,2],"volume":1,"alpha":0.1}] x`,
	} {
		checkAgainstOracle(t, []byte(c))
	}
}

// TestAppendJSONMatchesOracleIDs pins byte identity on IDs only a
// programmatic set can hold: HTML-special characters, control bytes and
// invalid UTF-8.
func TestAppendJSONMatchesOracleIDs(t *testing.T) {
	var flows []Flow
	for _, id := range []string{"<a&b>", "tab\t\"q\"\\", "\x00\x1f", "\xff\xfe", " ", "plain-id"} {
		flows = append(flows, mustFlow(t, id, path(0, 1, 2), 3.25))
	}
	s, err := NewSet(flows)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleWriteJSON(s)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := s.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON:\n%s\noracle:\n%s", got.Bytes(), want)
	}
}

// TestReadJSONRejectsTrailingData: a file holding a flow list followed by
// anything but whitespace is malformed, not a flow list.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	const fl = `[{"id":"a","path":[0,1],"volume":1,"alpha":0.5}]`
	if _, err := ReadJSON(strings.NewReader(fl + "\n \t\r")); err != nil {
		t.Fatalf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"garbage", "[]", " 0", "\n" + fl} {
		if _, err := ReadJSON(strings.NewReader(fl + tail)); err == nil {
			t.Errorf("trailing %q accepted", tail)
		}
	}
}

// TestNewSetRepeatedNodes pins the incidence index on paths that revisit
// nodes: each flow records only its first visit of a node, and a node's
// visits are in flow order.
func TestNewSetRepeatedNodes(t *testing.T) {
	s, err := NewSet([]Flow{
		mustFlow(t, "loop", path(1, 2, 1, 3, 2, 1), 1),
		mustFlow(t, "back", path(3, 1, 3, 1), 1),
		mustFlow(t, "once", path(2, 4), 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.NodeID][]Visit{
		1: {{Flow: 0, Pos: 0}, {Flow: 1, Pos: 1}},
		2: {{Flow: 0, Pos: 1}, {Flow: 2, Pos: 0}},
		3: {{Flow: 0, Pos: 3}, {Flow: 1, Pos: 0}},
		4: {{Flow: 2, Pos: 1}},
	}
	if !reflect.DeepEqual(s.byNode, want) {
		t.Fatalf("byNode = %v, want %v", s.byNode, want)
	}
}
