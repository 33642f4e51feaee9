package geo

// DeadReckon returns the position reached from start after moving with
// constant velocity v for dt time units.
func DeadReckon(start Point, v Vector, dt float64) Point {
	return start.Add(v.Scale(dt))
}

// SafeRadius returns the slack to add to an answer radius so that, given
// maximum object speed vobj and maximum query speed vqry, no object outside
// the enlarged circle at install time can enter the true kNN within the
// next `horizon` time units. This is the monitoring-region sizing rule of
// the distributed protocol.
func SafeRadius(answerRadius, vobj, vqry, horizon float64) float64 {
	if answerRadius < 0 {
		answerRadius = 0
	}
	return answerRadius + (vobj+vqry)*horizon
}

// ReflectInto folds a point that has left rectangle r back inside by
// reflecting it across the violated boundary, flipping the matching
// velocity component. It is used by the mobility models to keep objects in
// the world; it handles overshoot larger than the world size by iterating.
func ReflectInto(p Point, v Vector, r Rect) (Point, Vector) {
	for i := 0; i < 64; i++ {
		moved := false
		if p.X < r.Min.X {
			p.X = 2*r.Min.X - p.X
			v.X = -v.X
			moved = true
		} else if p.X > r.Max.X {
			p.X = 2*r.Max.X - p.X
			v.X = -v.X
			moved = true
		}
		if p.Y < r.Min.Y {
			p.Y = 2*r.Min.Y - p.Y
			v.Y = -v.Y
			moved = true
		} else if p.Y > r.Max.Y {
			p.Y = 2*r.Max.Y - p.Y
			v.Y = -v.Y
			moved = true
		}
		if !moved {
			return p, v
		}
	}
	// Degenerate (e.g. zero-area rect with huge overshoot): clamp.
	return r.Clamp(p), v
}
