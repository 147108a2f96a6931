// Package geo provides the planar geometry primitives used by the road
// network and the traffic simulator.
//
// All coordinates are in metres on a local tangent plane (x grows east,
// y grows north).
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the local tangent plane, in metres.
type Point struct {
	X float64 // metres east of the local origin
	Y float64 // metres north of the local origin
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp returns the point at parameter t in [0, 1] on the segment p→q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned bounding box.
type Rect struct {
	Min Point // lower-left corner
	Max Point // upper-right corner
}

// EmptyRect returns a rectangle that contains nothing; extending it with any
// point produces the degenerate rectangle at that point.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Extend returns the smallest rectangle containing r and p.
func (r Rect) Extend(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return r.Extend(s.Min).Extend(s.Max)
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Polyline is an ordered sequence of points describing a road geometry.
type Polyline []Point

// Length returns the total length of the polyline in metres.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// Bounds returns the bounding box of the polyline.
func (pl Polyline) Bounds() Rect {
	r := EmptyRect()
	for _, p := range pl {
		r = r.Extend(p)
	}
	return r
}

// At returns the point at distance d metres along the polyline, clamped to
// the endpoints.
func (pl Polyline) At(d float64) Point {
	if len(pl) == 0 {
		return Point{}
	}
	if d <= 0 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if d <= seg && seg > 0 {
			return pl[i-1].Lerp(pl[i], d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}
