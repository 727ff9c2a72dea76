// Package wire is the JSON codec of the problem wire format: a byte-slice
// scanner that decodes values straight into Go fields, and the float and
// string encoders the graph and flow interchange formats append with.
//
// Decoding follows RFC 8259 strictly and accepts exactly what
// encoding/json's Unmarshal accepts for the same Go types:
//
//   - object keys match a field by exact name first, then by
//     strings.EqualFold; unmatched keys are skipped after their value is
//     checked, and the last of duplicate keys wins;
//   - null leaves a scalar or struct field unchanged and sets a slice to
//     nil; Raw captures it as the four bytes "null";
//   - a slice is decoded in place over its previous backing array, so a
//     duplicate key decodes over the earlier value exactly as encoding/json
//     does;
//   - a number must fit its field (no fraction or exponent for integers,
//     no overflow, no float beyond the float64 range);
//   - strings are unquoted as encoding/json unquotes them, invalid UTF-8
//     and lone surrogates becoming U+FFFD;
//   - nesting deeper than 10000 arrays and objects is rejected.
//
// Unlike encoding/json, a decode stops at the first error, and which of
// several errors is reported is unspecified: callers map every error of
// one decode to one outcome. The package imports the standard library
// only and sits at the bottom of the package DAG beside obs.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Error is a decode failure: a grammar violation or a value that does not
// fit its Go field. Offset is the byte offset in the input.
type Error struct {
	Offset int
	Msg    string
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s at offset %d", e.Msg, e.Offset) }

// Decoder walks one JSON text held in memory. The zero value is not
// usable; construct with NewDecoder.
type Decoder struct {
	data  []byte
	pos   int
	depth int
}

// NewDecoder returns a decoder positioned at the start of data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Keys is the field-name table of one decoded struct type.
type Keys struct {
	names []string
	raw   [][]byte
}

// NewKeys returns the table for the given field names. Names must be
// distinct under case folding, as they are in every wire struct.
func NewKeys(names ...string) *Keys {
	k := &Keys{names: names}
	for _, n := range names {
		k.raw = append(k.raw, []byte(n))
	}
	return k
}

// match returns the field name an unquoted key selects, or "" for none.
func (k *Keys) match(key []byte) string {
	for _, n := range k.names {
		if string(key) == n {
			return n
		}
	}
	for i, r := range k.raw {
		if bytes.EqualFold(key, r) {
			return k.names[i]
		}
	}
	return ""
}

func (d *Decoder) syntax(msg string) error { return &Error{Offset: d.pos, Msg: "syntax error: " + msg} }

func (d *Decoder) mismatch(want string) error {
	if d.pos >= len(d.data) {
		return d.syntax("unexpected end of JSON input")
	}
	return &Error{Offset: d.pos, Msg: "cannot decode " + d.kind() + " into " + want}
}

// kind names the JSON value at the cursor for error messages.
func (d *Decoder) kind() string {
	switch c := d.data[d.pos]; {
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == '"':
		return "string"
	case c == 't' || c == 'f':
		return "bool"
	case c == 'n':
		return "null"
	case c == '-' || (c >= '0' && c <= '9'):
		return "number"
	}
	return fmt.Sprintf("character %q", d.data[d.pos])
}

// ws skips insignificant whitespace.
func (d *Decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at end of input.
func (d *Decoder) peek() byte {
	d.ws()
	if d.pos >= len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// End checks that only whitespace follows the decoded value.
func (d *Decoder) End() error {
	if d.ws(); d.pos < len(d.data) {
		return d.syntax("invalid character after top-level value")
	}
	return nil
}

func (d *Decoder) enter() error {
	d.depth++
	if d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	return nil
}

// literal consumes one of true, false, null.
func (d *Decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.syntax("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// Skip checks and consumes one value of any kind.
func (d *Decoder) Skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte, bool) error { return d.Skip() })
	case c == '[':
		return d.array(func() error { return d.Skip() })
	case c == '"':
		_, _, err := d.stringToken()
		return err
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == 0 && d.pos >= len(d.data):
		return d.syntax("unexpected end of JSON input")
	}
	return d.syntax(fmt.Sprintf("invalid character %q looking for beginning of value", d.data[d.pos]))
}

// Raw checks and consumes one value and returns its bytes, a sub-slice of
// the input (no copy).
func (d *Decoder) Raw() ([]byte, error) {
	d.ws()
	start := d.pos
	if err := d.Skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.pos], nil
}

// Value decodes the value at the cursor with decode and returns its bytes,
// a sub-slice of the input (no copy). When decode fails, the value is
// checked again from its start with Skip: a grammar error there is
// returned as err; otherwise raw holds the value's bytes, valErr holds
// decode's error, and the cursor is past the value, so a caller can record
// the value's error and keep walking — the outcome of capturing the value
// with Raw and decoding it on its own afterwards.
func (d *Decoder) Value(decode func() error) (raw []byte, valErr, err error) {
	d.ws()
	start, depth := d.pos, d.depth
	if valErr = decode(); valErr != nil {
		d.pos, d.depth = start, depth
		if err := d.Skip(); err != nil {
			return nil, nil, err
		}
	}
	return d.data[start:d.pos], valErr, nil
}

// object walks the members of the object at the cursor, calling member
// with each key's token (escaped reports whether it needs unquoting);
// member must consume the value.
func (d *Decoder) object(member func(key []byte, escaped bool) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, escaped, err := d.stringToken()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.pos++
		if err := member(key, escaped); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array walks the elements of the array at the cursor; elem must consume
// one value per call.
func (d *Decoder) array(elem func() error) error {
	if err := d.enter(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntax("after array element")
		}
	}
}

// Object decodes the object at the cursor into a struct whose fields are
// keys: field is called with the matched name and must consume the value;
// values of unmatched keys are skipped. null leaves the struct unchanged.
func (d *Decoder) Object(keys *Keys, field func(name string) error) error {
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("object")
	}
	return d.object(func(key []byte, escaped bool) error {
		raw := key[1 : len(key)-1]
		if escaped {
			raw = []byte(unquote(key))
		}
		name := keys.match(raw)
		if name == "" {
			return d.Skip()
		}
		return field(name)
	})
}

// Slice decodes the array at the cursor into *dst with encoding/json's
// slice semantics: null sets nil, an empty array sets a fresh empty
// slice, and elements are decoded in place over dst's previous backing
// array (elem sees the element's prior value, which a null element
// keeps).
func Slice[T any](d *Decoder, dst *[]T, elem func(v *T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		*dst = nil
		return d.literal("null")
	default:
		return d.mismatch("array")
	}
	s := (*dst)[:0]
	err := d.array(func() error {
		if len(s) < cap(s) {
			s = s[:len(s)+1]
		} else {
			var zero T
			s = append(s, zero)
		}
		return elem(&s[len(s)-1])
	})
	if len(s) == 0 {
		s = make([]T, 0)
	}
	*dst = s
	return err
}

// number consumes one number token and returns it.
func (d *Decoder) number() ([]byte, error) {
	start := d.pos
	data := d.data
	i := d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		d.pos = i
		return nil, d.syntax("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			d.pos = i
			return nil, d.syntax("in exponent of numeric literal")
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.pos = i
	return data[start:i], nil
}

// Int decodes an integer into *v. Like encoding/json it accepts only a
// plain integer literal that fits T; null leaves *v unchanged.
func Int[T ~int | ~int32 | ~int64](d *Decoder, v *T) error {
	switch c := d.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("integer")
	}
	start := d.pos
	tok, err := d.number()
	if err != nil {
		return err
	}
	neg := tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	var n uint64
	for _, c := range digits {
		if c < '0' || c > '9' || n > (1<<63)/10 {
			return &Error{Offset: start, Msg: "cannot decode number " + string(tok) + " into integer"}
		}
		n = n*10 + uint64(c-'0')
	}
	var x int64
	switch {
	case neg && n <= 1<<63:
		x = -int64(n-1) - 1
	case !neg && n < 1<<63:
		x = int64(n)
	default:
		return &Error{Offset: start, Msg: "cannot decode number " + string(tok) + " into integer"}
	}
	if int64(T(x)) != x {
		return &Error{Offset: start, Msg: "number " + string(tok) + " overflows integer field"}
	}
	*v = T(x)
	return nil
}

// Ints decodes an array of integers into *dst with Slice's semantics.
func Ints[T ~int | ~int32 | ~int64](d *Decoder, dst *[]T) error {
	return Slice(d, dst, func(v *T) error { return Int(d, v) })
}

// Float decodes a number into *v. A number beyond the float64 range is an
// error, as in encoding/json; null leaves *v unchanged.
func (d *Decoder) Float(v *float64) error {
	switch c := d.peek(); {
	case c == '-' || (c >= '0' && c <= '9'):
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("number")
	}
	start := d.pos
	tok, err := d.number()
	if err != nil {
		return err
	}
	if f, ok := exactFloat(tok); ok {
		*v = f
		return nil
	}
	// The token is only read by ParseFloat, so it is viewed in place; an
	// error's copy of it is dropped below.
	f, perr := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if perr != nil {
		return &Error{Offset: start, Msg: "number " + string(tok) + " out of float64 range"}
	}
	*v = f
	return nil
}

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat converts a checked number token without an exponent whose
// digits, read as an integer, are below 2^53 and whose fraction has at
// most 22 digits: both the integer and the power of ten are then exact
// float64s, so their one correctly rounded quotient is the value
// ParseFloat returns (Clinger's fast path). ok is false for any other
// token.
func exactFloat(tok []byte) (f float64, ok bool) {
	neg := tok[0] == '-'
	digits := tok
	if neg {
		digits = tok[1:]
	}
	var m uint64
	scale := 0
	frac := false
	for _, c := range digits {
		switch {
		case c >= '0' && c <= '9':
			if m = m*10 + uint64(c-'0'); m >= 1<<53 {
				return 0, false
			}
			if frac {
				scale++
			}
		case c == '.':
			frac = true
		default:
			return 0, false
		}
	}
	if scale >= len(exactPow10) {
		return 0, false
	}
	f = float64(m) / exactPow10[scale]
	if neg {
		f = -f
	}
	return f, true
}

// String decodes a string into *v; null leaves *v unchanged.
func (d *Decoder) String(v *string) error {
	switch d.peek() {
	case '"':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("string")
	}
	tok, escaped, err := d.stringToken()
	if err != nil {
		return err
	}
	if escaped {
		*v = unquote(tok)
	} else {
		*v = string(tok[1 : len(tok)-1])
	}
	return nil
}

// stringToken consumes a string token, quotes included. escaped reports
// whether the contents differ from the raw bytes between the quotes
// (escapes or invalid UTF-8), so that unquote is needed.
func (d *Decoder) stringToken() (tok []byte, escaped bool, err error) {
	start := d.pos
	data := d.data
	nonASCII := false
	for i := start + 1; i < len(data); {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			tok = data[start:d.pos]
			return tok, escaped || (nonASCII && !utf8.Valid(tok)), nil
		case c == '\\':
			escaped = true
			n := escapeLen(data[i+1:])
			if n == 0 {
				d.pos = i + 1
				return nil, false, d.syntax("in string escape code")
			}
			i += 1 + n
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntax("in string literal")
		default:
			nonASCII = nonASCII || c >= utf8.RuneSelf
			i++
		}
	}
	d.pos = len(data)
	return nil, false, d.syntax("unexpected end of JSON input")
}

// escapeLen returns the length of the escape sequence starting the input
// (after its backslash), or 0 if it is not a valid one.
func escapeLen(b []byte) int {
	if len(b) == 0 {
		return 0
	}
	switch b[0] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return 1
	case 'u':
		if len(b) < 5 {
			return 0
		}
		for _, c := range b[1:5] {
			if !isHex(c) {
				return 0
			}
		}
		return 5
	}
	return 0
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// unquote decodes a checked string token that needs escape or UTF-8
// processing. Such strings are rare on the wire, so encoding/json does
// the work and its rules hold by construction.
func unquote(tok []byte) string {
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		// Unreachable: stringToken checked the token's grammar.
		panic("wire: unquote of a checked string token: " + err.Error())
	}
	return s
}
