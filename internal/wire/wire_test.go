package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// probe exercises every decoder entry point; its json tags make
// encoding/json the oracle for its wire decoding.
type probe struct {
	I    int             `json:"i"`
	N    int32           `json:"n"`
	L    int64           `json:"l"`
	F    float64         `json:"f"`
	S    string          `json:"s"`
	Ns   []int32         `json:"ns"`
	Pts  []point         `json:"pts"`
	Raw  json.RawMessage `json:"raw"`
	Sub  point           `json:"sub"`
	Strs []string        `json:"strs"`
}

type point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

var (
	probeKeys = NewKeys("i", "n", "l", "f", "s", "ns", "pts", "raw", "sub", "strs")
	pointKeys = NewKeys("x", "y")
)

func (p *point) decode(d *Decoder) error {
	return d.Object(pointKeys, func(name string) error {
		if name == "x" {
			return d.Float(&p.X)
		}
		return d.Float(&p.Y)
	})
}

func decodeProbe(data []byte) (probe, error) {
	var p probe
	d := NewDecoder(data)
	err := d.Object(probeKeys, func(name string) error {
		switch name {
		case "i":
			return Int(d, &p.I)
		case "n":
			return Int(d, &p.N)
		case "l":
			return Int(d, &p.L)
		case "f":
			return d.Float(&p.F)
		case "s":
			return d.String(&p.S)
		case "ns":
			return Ints(d, &p.Ns)
		case "pts":
			return Slice(d, &p.Pts, func(v *point) error { return v.decode(d) })
		case "raw":
			raw, err := d.Raw()
			p.Raw = raw
			return err
		case "sub":
			return p.Sub.decode(d)
		default:
			return Slice(d, &p.Strs, d.String)
		}
	})
	if err == nil {
		err = d.End()
	}
	return p, err
}

// checkProbe asserts the wire decoder and encoding/json agree on data:
// both fail, or both succeed with identical fields (floats compared by
// their shortest round-trip text, which tells -0 from 0).
func checkProbe(t *testing.T, data []byte) {
	t.Helper()
	got, err := decodeProbe(data)
	var want probe
	werr := json.Unmarshal(data, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%q: wire err %v, encoding/json err %v", data, err, werr)
	}
	if err != nil {
		return
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Fatalf("%q:\nwire          %s\nencoding/json %s", data, g, w)
	}
}

var probeCases = []string{
	`{"i":1,"n":-2,"l":9223372036854775807,"f":1.5e3,"s":"x","ns":[1,2],"pts":[{"x":1,"y":2}],"raw":{"a":[1]},"sub":{"x":-0},"strs":["a","b"]}`,
	`null`, ` null `, `{}`, `[]`, `""`, `1`, `true`, ``, ` `, `{`, `}`, `{"i":1}x`, `{"i":1} `,
	// Key matching: exact, folded, Unicode folding, escaped keys, duplicates.
	`{"I":3}`, `{"NS":[4]}`, `{"\u0069":5}`, `{"ſ":"fold"}`, `{"\u017f":"fold"}`, `{"i":1,"I":2}`, `{"unknown":{"deep":[1,{"x":null}]},"i":1}`,
	// Integers: range, fraction, exponent, sign.
	`{"n":2147483647}`, `{"n":2147483648}`, `{"n":-2147483648}`, `{"n":-2147483649}`,
	`{"l":-9223372036854775808}`, `{"l":9223372036854775808}`, `{"l":-9223372036854775809}`,
	`{"l":99999999999999999999}`, `{"i":-0}`, `{"i":1.0}`, `{"i":1e2}`, `{"i":"1"}`, `{"i":true}`, `{"i":null}`,
	`{"i":01}`, `{"i":-}`, `{"i":+1}`, `{"i":[1]}`, `{"i":{}}`,
	// Floats: range, underflow, grammar.
	`{"f":1e400}`, `{"f":-1e400}`, `{"f":1e-400}`, `{"f":-0.0}`, `{"f":1.}`, `{"f":.5}`, `{"f":1e}`, `{"f":1e+}`,
	`{"f":1E+2}`, `{"f":123456789012345678901234567890}`, `{"f":"1"}`, `{"f":null}`, `{"f":NaN}`, `{"f":Infinity}`,
	// Strings: escapes, surrogates, invalid UTF-8, control bytes.
	`{"s":"a\"b\\c\/d\b\f\n\r\t"}`, `{"s":"\u00e9\u2028"}`, `{"s":"\ud83d\ude00"}`, `{"s":"\ud83d"}`, `{"s":"\udc00x"}`,
	"{\"s\":\"\xff\xfe\"}", "{\"s\":\"caf\xc3\xa9\"}", "{\"s\":\"a\x01\"}", `{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"\u12g4"}`,
	`{"s":"abc`, `{"s":"abc\`, `{"s":1}`, `{"s":null}`, `{"s":[]}`,
	// Slices: null, empty, element nulls, duplicate keys decoding over the
	// earlier backing array.
	`{"ns":null}`, `{"ns":[]}`, `{"ns":[null,1]}`, `{"ns":[1,2,3],"ns":[null,null]}`, `{"ns":[1,2,3],"ns":[],"ns":[null]}`,
	`{"ns":[1,2,3],"ns":[9],"ns":[null,null,null]}`, `{"ns":[1],"ns":null,"ns":[null]}`,
	`{"pts":[{"x":1,"y":2}],"pts":[{"x":3}]}`, `{"pts":[{"x":1,"y":2}],"pts":[null]}`, `{"pts":[1]}`, `{"pts":{}}`,
	`{"strs":["a","b"],"strs":[null,"c",null]}`, `{"ns":[1,]}`, `{"ns":[,1]}`, `{"ns":[1 2]}`,
	// Raw captures and structs.
	`{"raw":null}`, `{"raw": [1, 2] }`, `{"raw":"s","raw":3}`, `{"raw":}`, `{"sub":null}`, `{"sub":{"x":1},"sub":{"y":2}}`,
	`{"sub":[]}`, `{"sub":1}`,
	// Grammar.
	`{"i":1,}`, `{,"i":1}`, `{"i" 1}`, `{i:1}`, `{"i":1 "n":2}`, `{"a":tru}`, `{"a":nul}`, `{"a":fals}`, `{"a":falsey}`,
	"\ufeff{}", "{\"a\":\x00}", `{"a":[[[]]]}`, `{"a":{"b":{"c":{}}}}`, "\t{\r\n\"i\" :\n1 }\n",
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range probeCases {
		checkProbe(t, []byte(c))
	}
}

func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		// The probe object is one level; raw holds the rest.
		body := `{"raw":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
		checkProbe(t, []byte(body))
		body = `{"unknown":` + strings.Repeat(`{"a":`, depth-1) + "1" + strings.Repeat("}", depth-1) + `}`
		checkProbe(t, []byte(body))
	}
}

// TestDecodeMutations checks agreement on random byte edits of the seed
// cases, which reach grammar corners no hand-written case names.
func TestDecodeMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	alphabet := []byte(`{}[],:"\ -+.eE0123456789aflnrstux` + "\xff\x01")
	for i := 0; i < 20000; i++ {
		b := []byte(probeCases[rng.Intn(len(probeCases))])
		for e := rng.Intn(4); e >= 0; e-- {
			pos := 0
			if len(b) > 0 {
				pos = rng.Intn(len(b))
			}
			c := alphabet[rng.Intn(len(alphabet))]
			switch rng.Intn(3) {
			case 0:
				if len(b) > 0 {
					b[pos] = c
				}
			case 1:
				b = append(b[:pos], append([]byte{c}, b[pos:]...)...)
			default:
				if len(b) > 0 {
					b = append(b[:pos], b[pos+1:]...)
				}
			}
		}
		checkProbe(t, b)
	}
}

func TestErrorMessage(t *testing.T) {
	_, err := decodeProbe([]byte(`{"i":"x"}`))
	if err == nil || !strings.Contains(err.Error(), "cannot decode string into integer at offset 5") {
		t.Fatalf("err = %v", err)
	}
}

// TestAppendFloatMatchesMarshal pins byte identity with json.Marshal on
// the format boundaries and on random bit patterns.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99999e-7, -1e-7, 1e20, 1e21, 9.999999999999999e20,
		-1e21, 1e22, 123456789, 1.5e300, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 5e-324, 1e-100, 3.14159,
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()))
	}
	for _, f := range cases {
		got, err := AppendFloat([]byte("x"), f)
		want, werr := json.Marshal(f)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%v (%#x): err %v, json.Marshal err %v", f, math.Float64bits(f), err, werr)
		}
		if err != nil {
			if string(got) != "x" {
				t.Fatalf("%v: failed append wrote %q", f, got)
			}
			continue
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("%v (%#x): AppendFloat %q, json.Marshal %q", f, math.Float64bits(f), got[1:], want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) did not fail", f)
		}
	}
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "plain", "flow-12/a_b", "a\"b", `back\slash`, "<script>&amp;</script>", "tab\tnew\nline\r",
		"\b\f\x00\x1f\x7f", "caf\u00e9", "\u2028\u2029", "\xff\xfeinvalid", "\xed\xa0\x80", "😀",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got[1:]) != string(want) {
			t.Errorf("%q: AppendString %q, json.Marshal %q", s, got[1:], want)
		}
	}
}

// checkFloat fails t unless Float decodes the number token tok to the bits
// strconv.ParseFloat gives, or rejects it exactly when ParseFloat does.
func checkFloat(t *testing.T, tok string) {
	t.Helper()
	want, werr := strconv.ParseFloat(tok, 64)
	var got float64
	gerr := NewDecoder([]byte(tok)).Float(&got)
	if (gerr != nil) != (werr != nil) || math.Float64bits(got) != math.Float64bits(want) && werr == nil {
		t.Fatalf("Float(%q) = %v (%x), %v; ParseFloat %v (%x), %v",
			tok, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
	}
}

// TestFloatMatchesParseFloat covers the exact fast path's boundaries (2^53
// digits, 22 fraction digits, signed zeros) and random decimal tokens of
// up to 25 digits, so tokens on both sides of every fast-path bound meet
// ParseFloat.
func TestFloatMatchesParseFloat(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.000", "1", "-1", "0.1", "0.001", "9007199254740991", "9007199254740992",
		"9007199254740993", "900719925474099.1", "900719925474099.3", "0.9007199254740993",
		"492.9756442291482", "1503.7475841770042", "1e5", "1E-5", "0.0000000000000000000001",
		"0.00000000000000000000001", "1.0000000000000000000000", "123456789012345678901234567890",
		"4503599627370497.5", "2.2250738585072014", "1.7976931348623157",
	} {
		checkFloat(t, tok)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		digits := make([]byte, 1+rng.Intn(25))
		for j := range digits {
			digits[j] = byte('0' + rng.Intn(10))
		}
		if digits[0] == '0' && len(digits) > 1 {
			digits[0] = byte('1' + rng.Intn(9))
		}
		tok := string(digits)
		if dot := rng.Intn(len(digits) + 1); dot > 0 && dot < len(digits) {
			tok = tok[:dot] + "." + tok[dot:]
		} else if rng.Intn(2) == 0 {
			tok = "0." + tok
		}
		if rng.Intn(2) == 0 {
			tok = "-" + tok
		}
		checkFloat(t, tok)
	}
}

// FuzzFloat checks Float against strconv.ParseFloat on arbitrary tokens
// the JSON number grammar accepts.
func FuzzFloat(f *testing.F) {
	for _, seed := range []string{"0", "-0.5", "492.9756442291482", "9007199254740993", "1e300", "0.0000000000000000000001"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		d := NewDecoder([]byte(tok))
		if _, err := d.number(); err != nil || d.pos != len(tok) || len(tok) == 0 {
			return
		}
		checkFloat(t, tok)
	})
}
