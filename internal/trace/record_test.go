package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"roadside/internal/geo"
)

func sampleRecords() []Record {
	base := time.Date(2015, time.March, 2, 8, 0, 0, 0, time.UTC)
	return []Record{
		{At: base, BusID: "b1", JourneyID: "j1", Pos: geo.Pt(100, 200)},
		{At: base.Add(30 * time.Second), BusID: "b1", JourneyID: "j1", Pos: geo.Pt(400, 250)},
		{At: base.Add(time.Minute), BusID: "b2", JourneyID: "j2", Pos: geo.Pt(-50, 999.5)},
	}
}

func TestCSVRoundTripXY(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs, FormatXY, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, FormatXY, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count = %d", len(got))
	}
	for i := range recs {
		if !got[i].At.Equal(recs[i].At) || got[i].BusID != recs[i].BusID ||
			got[i].JourneyID != recs[i].JourneyID {
			t.Errorf("record %d metadata mismatch: %+v", i, got[i])
		}
		if got[i].Pos.Euclidean(recs[i].Pos) > 0.01 {
			t.Errorf("record %d pos %v vs %v", i, got[i].Pos, recs[i].Pos)
		}
	}
}

func TestCSVRoundTripLonLat(t *testing.T) {
	proj, err := geo.NewProjection(geo.LonLat{Lon: -6.26, Lat: 53.35})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs, FormatLonLat, proj); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if head != "timestamp,bus_id,journey_id,lon,lat" {
		t.Errorf("header = %q", head)
	}
	got, err := ReadCSV(bytes.NewReader(buf.Bytes()), FormatLonLat, proj)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		// 7 decimal places of a degree is ~0.04 ft; allow a foot.
		if got[i].Pos.Euclidean(recs[i].Pos) > 1 {
			t.Errorf("record %d pos %v vs %v", i, got[i].Pos, recs[i].Pos)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if err := WriteCSV(&bytes.Buffer{}, nil, FormatLonLat, nil); !errors.Is(err, ErrNilProj) {
		t.Errorf("write without projection: %v", err)
	}
	if _, err := ReadCSV(strings.NewReader(""), FormatLonLat, nil); !errors.Is(err, ErrNilProj) {
		t.Errorf("read without projection: %v", err)
	}
	cases := []string{
		"",
		"timestamp,bus_id,route_id,x,y\nnot-a-time,b,r,1,2\n",
		"timestamp,bus_id,route_id,x,y\n2015-03-02T08:00:00Z,b,r,zap,2\n",
		"timestamp,bus_id,route_id,x,y\n2015-03-02T08:00:00Z,b,r,1,zap\n",
		"timestamp,bus_id,route_id,x\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), FormatXY, nil); !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// TestStreamCSVErrors: ReadCSV reads one row at a time, so a wrong header
// is refused before any row is read, and a bad row after good ones fails
// the whole read rather than returning the rows before it.
func TestStreamCSVErrors(t *testing.T) {
	const good = "2015-03-02T08:00:00Z,b,r,1,2\n"
	cases := []string{
		"wrong,header,entirely,x,y\n" + good,
		"timestamp,bus_id,route_id,x,y\n" + good + "2015-03-02T08:01:00Z,b,r,1\n",
		"timestamp,bus_id,route_id,x,y\n" + good + good + "bad-time,b,r,1,2\n",
	}
	for i, in := range cases {
		recs, err := ReadCSV(strings.NewReader(in), FormatXY, nil)
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("case %d: err = %v, want ErrBadFormat", i, err)
		}
		if recs != nil {
			t.Errorf("case %d: %d records returned with the error", i, len(recs))
		}
	}
}

// TestReadCSVRejectsOtherFormat: a file's header decides its frame, so a
// Dublin lon/lat trace read as Seattle x/y (or the reverse) is refused
// instead of having degrees taken for feet.
func TestReadCSVRejectsOtherFormat(t *testing.T) {
	proj, err := geo.NewProjection(geo.LonLat{Lon: -6.26, Lat: 53.35})
	if err != nil {
		t.Fatal(err)
	}
	var lonlat, xy bytes.Buffer
	if err := WriteCSV(&lonlat, sampleRecords(), FormatLonLat, proj); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&xy, sampleRecords(), FormatXY, nil); err != nil {
		t.Fatal(err)
	}
	if recs, err := ReadCSV(&lonlat, FormatXY, nil); !errors.Is(err, ErrBadFormat) {
		t.Errorf("lon/lat file read as x/y: %d records, err = %v, want ErrBadFormat", len(recs), err)
	}
	if recs, err := ReadCSV(&xy, FormatLonLat, proj); !errors.Is(err, ErrBadFormat) {
		t.Errorf("x/y file read as lon/lat: %d records, err = %v, want ErrBadFormat", len(recs), err)
	}
}

func TestSortByTime(t *testing.T) {
	base := time.Date(2015, time.March, 2, 8, 0, 0, 0, time.UTC)
	recs := []Record{
		{At: base.Add(time.Minute), BusID: "late"},
		{At: base, BusID: "early"},
		{At: base.Add(30 * time.Second), BusID: "mid"},
	}
	SortByTime(recs)
	if recs[0].BusID != "early" || recs[1].BusID != "mid" || recs[2].BusID != "late" {
		t.Errorf("order = %v %v %v", recs[0].BusID, recs[1].BusID, recs[2].BusID)
	}
}
