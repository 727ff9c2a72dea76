package geo

import "errors"

// ErrEmptyPolyline is returned by polyline operations that require at least
// one vertex.
var ErrEmptyPolyline = errors.New("geo: empty polyline")

// Polyline is an ordered sequence of vertices describing a route geometry.
type Polyline []Point

// Length returns the total Euclidean length of the polyline in feet.
func (l Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(l); i++ {
		total += l[i-1].Euclidean(l[i])
	}
	return total
}

// Walk returns the point at arc-length distance d from the start of the
// polyline. Distances beyond the ends clamp to the endpoints.
func (l Polyline) Walk(d float64) (Point, error) {
	if len(l) == 0 {
		return Point{}, ErrEmptyPolyline
	}
	if d <= 0 {
		return l[0], nil
	}
	for i := 1; i < len(l); i++ {
		seg := l[i-1].Euclidean(l[i])
		if d <= seg && seg > 0 {
			return l[i-1].Lerp(l[i], d/seg), nil
		}
		d -= seg
	}
	return l[len(l)-1], nil
}

// BBox returns the bounding box of the polyline's vertices.
func (l Polyline) BBox() BBox {
	b := EmptyBBox()
	for _, p := range l {
		b = b.Extend(p)
	}
	return b
}

// NearestVertex returns the index of the polyline vertex closest to p under
// the Euclidean metric, together with the distance. It returns
// ErrEmptyPolyline for an empty polyline.
func (l Polyline) NearestVertex(p Point) (int, float64, error) {
	if len(l) == 0 {
		return 0, 0, ErrEmptyPolyline
	}
	best, bestD := 0, l[0].Euclidean(p)
	for i := 1; i < len(l); i++ {
		if d := l[i].Euclidean(p); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD, nil
}
