package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); !almostEq(got, c.want) {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); !almostEq(got, c.want*c.want) {
			t.Errorf("DistSq(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestDistSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if !almostEq(v.Len(), 5) {
		t.Errorf("Len = %v, want 5", v.Len())
	}
	if !almostEq(v.LenSq(), 25) {
		t.Errorf("LenSq = %v, want 25", v.LenSq())
	}
	n := v.Norm()
	if !almostEq(n.Len(), 1) {
		t.Errorf("Norm length = %v, want 1", n.Len())
	}
	if z := Vec(0, 0).Norm(); z != Vec(0, 0) {
		t.Errorf("Norm of zero = %v, want zero", z)
	}
	if got := v.Scale(2); got != Vec(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Add(Vec(1, -1)); got != Vec(4, 3) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(Vec(1, 1)); got != Vec(2, 3) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Dot(Vec(2, 1)); !almostEq(got, 10) {
		t.Errorf("Dot = %v, want 10", got)
	}
	if got := Pt(1, 2).Add(Vec(2, 3)); got != Pt(3, 5) {
		t.Errorf("Point.Add = %v", got)
	}
	if got := Pt(3, 5).Sub(Pt(1, 2)); got != Vec(2, 3) {
		t.Errorf("Point.Sub = %v", got)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(2, 7))
	if r.Min != Pt(2, 1) || r.Max != Pt(5, 7) {
		t.Fatalf("NewRect = %v", r)
	}
	if !almostEq(r.Width(), 3) || !almostEq(r.Height(), 6) {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if r.Center() != Pt(3.5, 4) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(5, 5), Pt(0, 10)} {
		if !r.Contains(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{Pt(-0.001, 5), Pt(10.001, 5), Pt(5, -1), Pt(5, 11)} {
		if r.Contains(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestRectMinMaxDist(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	cases := []struct {
		p   Point
		min float64
	}{
		{Pt(5, 5), 0},
		{Pt(13, 4), 3},
		{Pt(13, 14), 5},
		{Pt(-3, 5), 3},
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); !almostEq(got, c.min) {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.min)
		}
		if got := r.MinDistSq(c.p); !almostEq(got, c.min*c.min) {
			t.Errorf("MinDistSq(%v) = %v, want %v", c.p, got, c.min*c.min)
		}
	}
}

// Property: for random rects and points, MinDist <= dist to center.
func TestRectDistOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		r := NewRect(
			Pt(rng.Float64()*100-50, rng.Float64()*100-50),
			Pt(rng.Float64()*100-50, rng.Float64()*100-50),
		)
		p := Pt(rng.Float64()*200-100, rng.Float64()*200-100)
		mind := r.MinDist(p)
		cd := p.Dist(r.Center())
		if mind > cd+1e-9 {
			t.Fatalf("ordering violated: min=%v center=%v for %v %v", mind, cd, r, p)
		}
		if r.Contains(p) && mind != 0 {
			t.Fatalf("contained point has MinDist %v", mind)
		}
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Pt(0, 0), 5}
	if !c.Contains(Pt(3, 4)) {
		t.Error("boundary point should be contained")
	}
	if c.Contains(Pt(3.1, 4)) {
		t.Error("outside point contained")
	}
	if !c.IntersectsRect(NewRect(Pt(3, 3), Pt(10, 10))) {
		t.Error("rect with corner at distance sqrt(18) < 5 should intersect")
	}
	if c.IntersectsRect(NewRect(Pt(4, 4), Pt(10, 10))) {
		t.Error("rect at distance sqrt(32) > 5 should not intersect")
	}
	br := c.BoundingRect()
	if br.Min != Pt(-5, -5) || br.Max != Pt(5, 5) {
		t.Errorf("BoundingRect = %v", br)
	}
}

func TestEmptyCircle(t *testing.T) {
	c := Circle{Pt(0, 0), -1}
	if c.Contains(Pt(0, 0)) {
		t.Error("negative-radius circle contains nothing")
	}
	if c.IntersectsRect(NewRect(Pt(-1, -1), Pt(1, 1))) {
		t.Error("negative-radius circle intersects nothing")
	}
}

func TestDeadReckon(t *testing.T) {
	got := DeadReckon(Pt(1, 1), Vec(2, -1), 3)
	if got != Pt(7, -2) {
		t.Errorf("DeadReckon = %v", got)
	}
}

func TestSafeRadius(t *testing.T) {
	if got := SafeRadius(100, 10, 5, 2); !almostEq(got, 130) {
		t.Errorf("SafeRadius = %v, want 130", got)
	}
	if got := SafeRadius(-3, 10, 5, 1); !almostEq(got, 15) {
		t.Errorf("negative answer radius should clamp to 0: %v", got)
	}
}

func TestReflectInto(t *testing.T) {
	world := NewRect(Pt(0, 0), Pt(100, 100))
	p, v := ReflectInto(Pt(105, 50), Vec(3, 0), world)
	if p != Pt(95, 50) || v != Vec(-3, 0) {
		t.Errorf("reflect right: %v %v", p, v)
	}
	p, v = ReflectInto(Pt(-10, -20), Vec(-1, -2), world)
	if p != Pt(10, 20) || v != Vec(1, 2) {
		t.Errorf("reflect both: %v %v", p, v)
	}
	// Already inside: unchanged.
	p, v = ReflectInto(Pt(50, 50), Vec(1, 1), world)
	if p != Pt(50, 50) || v != Vec(1, 1) {
		t.Errorf("inside point changed: %v %v", p, v)
	}
}

// Property: ReflectInto always lands inside the world for bounded overshoot.
func TestReflectIntoStaysInside(t *testing.T) {
	world := NewRect(Pt(0, 0), Pt(50, 80))
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		p := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		v := Vec(rng.Float64()*20-10, rng.Float64()*20-10)
		got, _ := ReflectInto(p, v, world)
		if !world.Contains(got) {
			t.Fatalf("ReflectInto(%v) = %v escapes %v", p, got, world)
		}
	}
}

func TestStringers(t *testing.T) {
	if s := Pt(1, 2).String(); s == "" {
		t.Error("empty Point string")
	}
	if s := NewRect(Pt(0, 0), Pt(1, 1)).String(); s == "" {
		t.Error("empty Rect string")
	}
	if s := (Circle{Pt(0, 0), 1}).String(); s == "" {
		t.Error("empty Circle string")
	}
}
