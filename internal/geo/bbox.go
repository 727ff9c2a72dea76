package geo

import (
	"fmt"
	"math"
)

// BBox is an axis-aligned bounding box, inclusive on all sides.
type BBox struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// EmptyBBox returns a degenerate box that contains nothing and can be
// extended with Extend.
func EmptyBBox() BBox {
	return BBox{
		Min: Point{X: math.Inf(1), Y: math.Inf(1)},
		Max: Point{X: math.Inf(-1), Y: math.Inf(-1)},
	}
}

// Square returns the axis-aligned square of side length side centered at c.
// This is the "D x D square region centered at the shop" used by the
// paper's Random baseline and Manhattan scenario.
func Square(c Point, side float64) BBox {
	h := side / 2
	return BBox{
		Min: Point{X: c.X - h, Y: c.Y - h},
		Max: Point{X: c.X + h, Y: c.Y + h},
	}
}

// IsEmpty reports whether the box contains no points.
func (b BBox) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Extend grows the box to include p.
func (b BBox) Extend(p Point) BBox {
	return BBox{
		Min: Point{X: math.Min(b.Min.X, p.X), Y: math.Min(b.Min.Y, p.Y)},
		Max: Point{X: math.Max(b.Max.X, p.X), Y: math.Max(b.Max.Y, p.Y)},
	}
}

// Union returns the smallest box containing both b and o.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return b.Extend(o.Min).Extend(o.Max)
}

// Inset shrinks the box by d on every side. A negative d grows it.
func (b BBox) Inset(d float64) BBox {
	return BBox{
		Min: Point{X: b.Min.X + d, Y: b.Min.Y + d},
		Max: Point{X: b.Max.X - d, Y: b.Max.Y - d},
	}
}

// Center returns the geometric center of the box.
func (b BBox) Center() Point {
	return Point{X: (b.Min.X + b.Max.X) / 2, Y: (b.Min.Y + b.Max.Y) / 2}
}

// Width returns the horizontal extent of the box.
func (b BBox) Width() float64 { return b.Max.X - b.Min.X }

// Height returns the vertical extent of the box.
func (b BBox) Height() float64 { return b.Max.Y - b.Min.Y }

// Corners returns the four corners of the box in counterclockwise order
// starting from Min (southwest, southeast, northeast, northwest).
func (b BBox) Corners() [4]Point {
	return [4]Point{
		{X: b.Min.X, Y: b.Min.Y},
		{X: b.Max.X, Y: b.Min.Y},
		{X: b.Max.X, Y: b.Max.Y},
		{X: b.Min.X, Y: b.Max.Y},
	}
}

// String renders the box as "[min .. max]".
func (b BBox) String() string {
	return fmt.Sprintf("[%s .. %s]", b.Min, b.Max)
}
