package geo

import (
	"errors"
	"testing"
)

func TestPolylineLength(t *testing.T) {
	l := Polyline{Pt(0, 0), Pt(3, 4), Pt(3, 10)}
	if got := l.Length(); got != 11 {
		t.Errorf("Length = %v, want 11", got)
	}
	if got := (Polyline{}).Length(); got != 0 {
		t.Errorf("empty Length = %v", got)
	}
	if got := (Polyline{Pt(1, 1)}).Length(); got != 0 {
		t.Errorf("single-vertex Length = %v", got)
	}
}

func TestPolylineWalk(t *testing.T) {
	l := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	cases := []struct {
		d    float64
		want Point
	}{
		{-5, Pt(0, 0)},
		{0, Pt(0, 0)},
		{5, Pt(5, 0)},
		{10, Pt(10, 0)},
		{15, Pt(10, 5)},
		{20, Pt(10, 10)},
		{99, Pt(10, 10)},
	}
	for _, c := range cases {
		got, err := l.Walk(c.d)
		if err != nil {
			t.Fatalf("Walk(%v): %v", c.d, err)
		}
		if got.Euclidean(c.want) > 1e-9 {
			t.Errorf("Walk(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	if _, err := (Polyline{}).Walk(1); !errors.Is(err, ErrEmptyPolyline) {
		t.Errorf("empty Walk err = %v", err)
	}
}

func TestPolylineNearestVertex(t *testing.T) {
	l := Polyline{Pt(0, 0), Pt(10, 0), Pt(20, 0)}
	i, d, err := l.NearestVertex(Pt(11, 1))
	if err != nil || i != 1 || !almostEqual(d, 1.41421356, 1e-6) {
		t.Errorf("NearestVertex = %d, %v, %v", i, d, err)
	}
	if _, _, err := (Polyline{}).NearestVertex(Pt(0, 0)); !errors.Is(err, ErrEmptyPolyline) {
		t.Errorf("empty err = %v", err)
	}
}
