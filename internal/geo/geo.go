// Package geo provides the 2-D geometric primitives used throughout the
// moving-object query engine: points, vectors, axis-aligned rectangles,
// circles, and the distance predicates needed by grid-based kNN search and
// by the distributed monitoring protocol (minimum/maximum point-rectangle
// distances, circle-rectangle intersection, and motion intercept times).
//
// All coordinates are float64 meters in a world whose origin is the
// lower-left corner. The package is purely computational and allocation
// free on the hot paths.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Vector is a displacement or velocity in the plane. It shares its
// representation with Point but is kept as a distinct type so that
// positions and velocities cannot be confused in protocol structs.
type Vector struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Vec is shorthand for Vector{x, y}.
func Vec(x, y float64) Vector { return Vector{x, y} }

// Add returns p displaced by v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q: the square root
// of a sum of rounded products. It is the one distance an object and the
// server measure an answer circle's boundary by, so it must come out bit
// for bit alike on any two machines: not math.Hypot, which is assembly on
// amd64 and portable code elsewhere, and no product Go may fuse into a
// multiply-add (it does on arm64).
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(float64(dx*dx) + float64(dy*dy))
}

// DistSq returns the squared Euclidean distance between p and q. It is the
// preferred comparator on hot paths because it avoids the square root.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Scale returns v scaled by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.X * s, v.Y * s} }

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 { return math.Hypot(v.X, v.Y) }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vector) Norm() Vector {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vector{v.X / l, v.Y / l}
}

// Rect is an axis-aligned rectangle, closed on all sides. Min must be
// component-wise <= Max; NewRect normalizes arbitrary corners.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by the two corner points in any
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundaries inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the point of r nearest to p; if p is inside r the result is
// p itself.
func (r Rect) Clamp(p Point) Point {
	return Point{clamp(p.X, r.Min.X, r.Max.X), clamp(p.Y, r.Min.Y, r.Max.Y)}
}

// MinDist returns the minimum Euclidean distance from p to any point of r
// (zero when p is inside r).
func (r Rect) MinDist(p Point) float64 {
	return p.Dist(r.Clamp(p))
}

// MinDistSq returns the squared minimum distance from p to r.
func (r Rect) MinDistSq(p Point) float64 {
	return p.DistSq(r.Clamp(p))
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Circle is a disk: center plus radius. A negative radius denotes an empty
// circle; Contains and IntersectsRect treat it as containing nothing.
type Circle struct {
	Center Point
	R      float64
}

// Contains reports whether p lies inside c (boundary inclusive).
func (c Circle) Contains(p Point) bool {
	if c.R < 0 {
		return false
	}
	return c.Center.DistSq(p) <= c.R*c.R
}

// IntersectsRect reports whether the disk intersects rectangle r.
func (c Circle) IntersectsRect(r Rect) bool {
	if c.R < 0 {
		return false
	}
	return r.MinDistSq(c.Center) <= c.R*c.R
}

// BoundingRect returns the smallest rectangle containing the disk.
func (c Circle) BoundingRect() Rect {
	return Rect{
		Min: Point{c.Center.X - c.R, c.Center.Y - c.R},
		Max: Point{c.Center.X + c.R, c.Center.Y + c.R},
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
