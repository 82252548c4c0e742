package geom

import "fmt"

// Rect is an axis-aligned rectangle, used to describe monitoring fields and
// bounding boxes. Min is the lower-left corner and Max the upper-right.
type Rect struct {
	Min Point `json:"min"`
	Max Point `json:"max"`
}

// Square returns the side x side rectangle anchored at the origin, e.g.
// Square(100) is the paper's 100 x 100 m^2 monitoring field.
func Square(side float64) Rect {
	return Rect{Min: Point{}, Max: Point{X: side, Y: side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r. The paper co-locates the base
// station and the MCV depot at the field center.
func (r Rect) Center() Point {
	return Point{X: (r.Min.X + r.Max.X) / 2, Y: (r.Min.Y + r.Max.Y) / 2}
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	if p.X < r.Min.X {
		p.X = r.Min.X
	}
	if p.X > r.Max.X {
		p.X = r.Max.X
	}
	if p.Y < r.Min.Y {
		p.Y = r.Min.Y
	}
	if p.Y > r.Max.Y {
		p.Y = r.Max.Y
	}
	return p
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// Bounds returns the tightest rectangle containing all pts. It returns the
// zero rectangle when pts is empty.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Min.X {
			r.Min.X = p.X
		}
		if p.Y < r.Min.Y {
			r.Min.Y = p.Y
		}
		if p.X > r.Max.X {
			r.Max.X = p.X
		}
		if p.Y > r.Max.Y {
			r.Max.Y = p.Y
		}
	}
	return r
}
