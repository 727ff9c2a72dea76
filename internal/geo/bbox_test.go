package geo

import (
	"math/rand"
	"testing"
)

func TestBBoxBasics(t *testing.T) {
	b := EmptyBBox().Extend(Pt(10, -5)).Extend(Pt(-2, 7))
	if b.Min != Pt(-2, -5) || b.Max != Pt(10, 7) {
		t.Fatalf("Extend normalized wrong: %v", b)
	}
	if b.Width() != 12 || b.Height() != 12 {
		t.Errorf("size = %v x %v", b.Width(), b.Height())
	}
	if b.Center() != Pt(4, 1) {
		t.Errorf("center = %v", b.Center())
	}
	if !b.Contains(Pt(0, 0)) || b.Contains(Pt(11, 0)) {
		t.Error("Contains wrong")
	}
	// Inclusive boundaries.
	if !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("boundaries should be inclusive")
	}
}

func TestEmptyBBox(t *testing.T) {
	e := EmptyBBox()
	if !e.IsEmpty() {
		t.Fatal("EmptyBBox not empty")
	}
	if e.Contains(Pt(0, 0)) {
		t.Error("empty box contains a point")
	}
	got := e.Extend(Pt(1, 2))
	if got.IsEmpty() || got.Min != Pt(1, 2) || got.Max != Pt(1, 2) {
		t.Errorf("Extend from empty = %v", got)
	}
}

func TestSquare(t *testing.T) {
	s := Square(Pt(100, 100), 50)
	if s.Min != Pt(75, 75) || s.Max != Pt(125, 125) {
		t.Fatalf("Square = %v", s)
	}
	if s.Center() != Pt(100, 100) {
		t.Errorf("center = %v", s.Center())
	}
	corners := s.Corners()
	want := [4]Point{Pt(75, 75), Pt(125, 75), Pt(125, 125), Pt(75, 125)}
	if corners != want {
		t.Errorf("corners = %v", corners)
	}
}

func TestUnionInset(t *testing.T) {
	a := BBox{Min: Pt(0, 0), Max: Pt(2, 2)}
	b := BBox{Min: Pt(5, 5), Max: Pt(6, 6)}
	u := a.Union(b)
	if u.Min != Pt(0, 0) || u.Max != Pt(6, 6) {
		t.Errorf("Union = %v", u)
	}
	if got := EmptyBBox().Union(a); got != a {
		t.Errorf("empty union = %v", got)
	}
	if got := a.Union(EmptyBBox()); got != a {
		t.Errorf("union empty = %v", got)
	}
	in := u.Inset(1)
	if in.Min != Pt(1, 1) || in.Max != Pt(5, 5) {
		t.Errorf("Inset = %v", in)
	}
}

func TestBBoxUnionContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		b := EmptyBBox()
		pts := make([]Point, 0, 20)
		for i := 0; i < 20; i++ {
			p := Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
			pts = append(pts, p)
			b = b.Extend(p)
		}
		for _, p := range pts {
			if !b.Contains(p) {
				t.Fatalf("box %v misses %v", b, p)
			}
		}
	}
}
