package graph

import (
	"fmt"
	"io"
	"strconv"

	"roadside/internal/geo"
	"roadside/internal/wire"
)

// The JSON interchange format of a Graph is a node coordinate list and a
// directed edge list, stable and consumed by the cmd tools:
//
//	{"nodes":[{"x":0,"y":0},...],"edges":[{"from":0,"to":1,"weight":5},...]}
//
// Edges are listed in CSR order (by source, then target). The
// bytes are exactly what encoding/json writes for the equivalent structs,
// and decoding accepts exactly what encoding/json accepts for them.

type jsonEdge struct {
	From   NodeID
	To     NodeID
	Weight float64
}

var (
	graphKeys = wire.NewKeys("nodes", "edges")
	pointKeys = wire.NewKeys("x", "y")
	edgeKeys  = wire.NewKeys("from", "to", "weight")
)

// AppendJSON appends g in the JSON interchange format (no trailing
// newline). A non-finite node coordinate is an error.
func (g *Graph) AppendJSON(dst []byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"nodes":[`...)
	for i, p := range g.pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"x":`...)
		if dst, err = wire.AppendFloat(dst, p.X); err != nil {
			return dst, fmt.Errorf("graph: node %d: %w", i, err)
		}
		dst = append(dst, `,"y":`...)
		if dst, err = wire.AppendFloat(dst, p.Y); err != nil {
			return dst, fmt.Errorf("graph: node %d: %w", i, err)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"edges":[`...)
	for u := 0; u+1 < len(g.outOff); u++ {
		for i := g.outOff[u]; i < g.outOff[u+1]; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"from":`...)
			dst = strconv.AppendInt(dst, int64(u), 10)
			dst = append(dst, `,"to":`...)
			dst = strconv.AppendInt(dst, int64(g.outDst[i]), 10)
			dst = append(dst, `,"weight":`...)
			//lint:ignore errdrop edge weights are finite by construction (Builder.AddEdge)
			dst, _ = wire.AppendFloat(dst, g.outW[i])
			dst = append(dst, '}')
		}
	}
	return append(dst, "]}"...), nil
}

// WriteJSON writes g in the JSON interchange format followed by a newline.
func (g *Graph) WriteJSON(w io.Writer) error {
	buf, err := g.AppendJSON(make([]byte, 0, 32*len(g.pts)+48*len(g.outDst)+32))
	if err != nil {
		return fmt.Errorf("graph: encode: %w", err)
	}
	if _, err := w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("graph: encode: %w", err)
	}
	return nil
}

// Parsed is a graph in the JSON interchange format, parsed but not yet
// built: the value Decode reads from inside a larger document, which
// Build turns into a Graph once the document has been walked.
type Parsed struct {
	nodes []geo.Point
	edges []jsonEdge
}

// Decode decodes the graph value at d's cursor into p, replacing what p
// held. It reports type and range errors as well as grammar errors; the
// edges are checked by Build.
func (p *Parsed) Decode(d *wire.Decoder) error {
	*p = Parsed{}
	return d.Object(graphKeys, func(name string) error {
		if name == "nodes" {
			return wire.Slice(d, &p.nodes, func(pt *geo.Point) error {
				return d.Object(pointKeys, func(name string) error {
					if name == "x" {
						return d.Float(&pt.X)
					}
					return d.Float(&pt.Y)
				})
			})
		}
		return wire.Slice(d, &p.edges, func(e *jsonEdge) error {
			return d.Object(edgeKeys, func(name string) error {
				switch name {
				case "from":
					return wire.Int(d, &e.From)
				case "to":
					return wire.Int(d, &e.To)
				}
				return d.Float(&e.Weight)
			})
		})
	})
}

// Build builds the decoded graph. Every edge goes through
// Builder.AddEdge and the graph through Build, so a decoded graph passes
// the same checks as a built one.
func (p *Parsed) Build() (*Graph, error) {
	b := &Builder{pts: p.nodes, edges: make([]edge, 0, len(p.edges))}
	for i, e := range p.edges {
		if err := b.AddEdge(e.From, e.To, e.Weight); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: build: %w", err)
	}
	return g, nil
}

// DecodeJSON parses a graph from the JSON interchange format and builds
// it (Parsed.Decode, then Parsed.Build). data must hold exactly one JSON
// value, optionally surrounded by whitespace.
func DecodeJSON(data []byte) (*Graph, error) {
	var p Parsed
	d := wire.NewDecoder(data)
	err := p.Decode(d)
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, fmt.Errorf("graph: decode: %w", err)
	}
	return p.Build()
}

// ReadJSON reads all of r and decodes it with DecodeJSON; data after the
// graph value other than whitespace is an error.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	return DecodeJSON(data)
}
