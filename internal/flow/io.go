package flow

import (
	"fmt"
	"io"
	"strconv"

	"roadside/internal/graph"
	"roadside/internal/wire"
)

// The JSON interchange format of a Set is the flow list, stable and
// consumed by the cmd tools so expensive map-matching runs can be cached:
//
//	[{"id":"f1","path":[0,1,2],"volume":10,"alpha":0.5},...]
//
// The bytes are exactly what encoding/json writes for the equivalent
// structs, and decoding accepts exactly what encoding/json accepts for
// them.

type jsonFlow struct {
	ID     string
	Path   []graph.NodeID
	Volume float64
	Alpha  float64
}

var flowKeys = wire.NewKeys("id", "path", "volume", "alpha")

// AppendJSON appends the set's flows in the JSON interchange format (no
// trailing newline).
func (s *Set) AppendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	for i, f := range s.flows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"id":`...)
		dst = wire.AppendString(dst, f.ID)
		dst = append(dst, `,"path":[`...)
		for j, v := range f.Path {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, `],"volume":`...)
		//lint:ignore errdrop volume is finite by construction (New, NewSetSharedIndex)
		dst, _ = wire.AppendFloat(dst, f.Volume)
		dst = append(dst, `,"alpha":`...)
		//lint:ignore errdrop alpha is in [0, 1] by construction (New, NewSetSharedIndex)
		dst, _ = wire.AppendFloat(dst, f.Alpha)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// WriteJSON writes the set's flows in the JSON interchange format
// followed by a newline.
func (s *Set) WriteJSON(w io.Writer) error {
	if _, err := w.Write(append(s.AppendJSON(nil), '\n')); err != nil {
		return fmt.Errorf("flow: encode: %w", err)
	}
	return nil
}

// Parsed is a flow list in the JSON interchange format, parsed but not
// yet validated: the value Decode reads from inside a larger document,
// which List validates once the document has been walked.
type Parsed struct {
	in []jsonFlow
}

// Decode decodes the flow list at d's cursor into p, replacing what p
// held. It reports type and range errors as well as grammar errors; the
// flows are checked by List.
func (p *Parsed) Decode(d *wire.Decoder) error {
	p.in = nil
	return wire.Slice(d, &p.in, func(jf *jsonFlow) error {
		return d.Object(flowKeys, func(name string) error {
			switch name {
			case "id":
				return d.String(&jf.ID)
			case "path":
				return wire.Ints(d, &jf.Path)
			case "volume":
				return d.Float(&jf.Volume)
			}
			return d.Float(&jf.Alpha)
		})
	})
}

// List validates every decoded flow through New and returns them, or
// ErrEmptySet for an empty list: the checks of NewSet without building
// its incidence index.
func (p *Parsed) List() (List, error) {
	if len(p.in) == 0 {
		return nil, ErrEmptySet
	}
	flows := make(List, 0, len(p.in))
	for i, jf := range p.in {
		f, err := New(jf.ID, jf.Path, jf.Volume, jf.Alpha)
		if err != nil {
			return nil, fmt.Errorf("flow: entry %d: %w", i, err)
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// DecodeJSON parses flows in the JSON interchange format and rebuilds the
// set (Parsed.Decode, Parsed.List, then NewSet). data must hold exactly
// one JSON value, optionally surrounded by whitespace.
func DecodeJSON(data []byte) (*Set, error) {
	var p Parsed
	d := wire.NewDecoder(data)
	err := p.Decode(d)
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, fmt.Errorf("flow: decode: %w", err)
	}
	flows, err := p.List()
	if err != nil {
		return nil, err
	}
	return NewSet(flows)
}

// ReadJSON reads all of r and decodes it with DecodeJSON; data after the
// flow list other than whitespace is an error.
func ReadJSON(r io.Reader) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("flow: read: %w", err)
	}
	return DecodeJSON(data)
}
