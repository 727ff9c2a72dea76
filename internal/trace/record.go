// Package trace implements the bus-trace substrate: GPS record modeling,
// CSV serialization in the Dublin (lon/lat + vehicle-journey ID) and
// Seattle (x/y + route ID) shapes, synthetic trace generation along bus
// routes, and a map-matcher that recovers traffic flows from noisy samples.
//
// The paper's original datasets are no longer distributed; this package
// generates statistically equivalent traces from citygen routes and proves
// (in its tests) that the map-matching pipeline recovers the ground-truth
// flows, so the downstream placement experiments exercise the same code
// path a real trace would.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"roadside/internal/geo"
)

// Errors reported by the codec.
var (
	ErrBadFormat = errors.New("trace: bad record format")
	ErrNilProj   = errors.New("trace: lon/lat format requires a projection")
)

// Record is one GPS sample from a bus.
type Record struct {
	// At is the sample timestamp.
	At time.Time
	// BusID identifies the vehicle.
	BusID string
	// JourneyID identifies the journey pattern (Dublin) or route
	// (Seattle); records sharing it belong to the same traffic flow.
	JourneyID string
	// Pos is the sample location in the city-local planar frame (feet).
	Pos geo.Point
}

// Format selects the CSV column layout.
type Format int

// Formats. FormatLonLat matches the Dublin trace (longitude/latitude);
// FormatXY matches the Seattle trace (planar coordinates).
const (
	FormatLonLat Format = iota + 1
	FormatXY
)

// header returns the CSV header for the format.
func (f Format) header() []string {
	switch f {
	case FormatLonLat:
		return []string{"timestamp", "bus_id", "journey_id", "lon", "lat"}
	default:
		return []string{"timestamp", "bus_id", "route_id", "x", "y"}
	}
}

// WriteCSV serializes records. For FormatLonLat a projection is required to
// convert planar positions back to geographic coordinates.
func WriteCSV(w io.Writer, recs []Record, format Format, proj *geo.Projection) error {
	if format == FormatLonLat && proj == nil {
		return ErrNilProj
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(format.header()); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, 5)
	for i, r := range recs {
		row[0] = r.At.UTC().Format(time.RFC3339)
		row[1] = r.BusID
		row[2] = r.JourneyID
		if format == FormatLonLat {
			ll := proj.Inverse(r.Pos)
			row[3] = strconv.FormatFloat(ll.Lon, 'f', 7, 64)
			row[4] = strconv.FormatFloat(ll.Lat, 'f', 7, 64)
		} else {
			row[3] = strconv.FormatFloat(r.Pos.X, 'f', 2, 64)
			row[4] = strconv.FormatFloat(r.Pos.Y, 'f', 2, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write record %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadCSV parses records written by WriteCSV, one row at a time. The
// header must name the format's columns, so a file written in the other
// format is refused with ErrBadFormat rather than having its coordinates
// read in the wrong frame. For FormatLonLat a projection is required to
// convert geographic coordinates to the planar frame.
func ReadCSV(r io.Reader, format Format, proj *geo.Projection) ([]Record, error) {
	if format == FormatLonLat && proj == nil {
		return nil, ErrNilProj
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 5
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	for i, want := range format.header() {
		if header[i] != want {
			return nil, fmt.Errorf("%w: header column %d is %q, want %q",
				ErrBadFormat, i, header[i], want)
		}
	}
	var recs []Record
	for line := 1; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%w: row %d: %v", ErrBadFormat, line, err)
		}
		rec, err := parseRow(row, format, proj, line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}

// parseRow converts one CSV row into a Record.
func parseRow(row []string, format Format, proj *geo.Projection, line int) (Record, error) {
	at, err := time.Parse(time.RFC3339, row[0])
	if err != nil {
		return Record{}, fmt.Errorf("%w: row %d timestamp: %v", ErrBadFormat, line, err)
	}
	a, err := strconv.ParseFloat(row[3], 64)
	if err != nil {
		return Record{}, fmt.Errorf("%w: row %d coordinate: %v", ErrBadFormat, line, err)
	}
	b, err := strconv.ParseFloat(row[4], 64)
	if err != nil {
		return Record{}, fmt.Errorf("%w: row %d coordinate: %v", ErrBadFormat, line, err)
	}
	var pos geo.Point
	if format == FormatLonLat {
		pos, err = proj.Forward(geo.LonLat{Lon: a, Lat: b})
		if err != nil {
			return Record{}, fmt.Errorf("%w: row %d: %v", ErrBadFormat, line, err)
		}
	} else {
		pos = geo.Pt(a, b)
	}
	return Record{At: at, BusID: row[1], JourneyID: row[2], Pos: pos}, nil
}

// SortByTime orders records chronologically (stable), the order the
// map-matcher expects within each bus.
func SortByTime(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].At.Before(recs[j].At)
	})
}
