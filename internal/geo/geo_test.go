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
}

// DeadReckon rounds each product before it adds it, so a client and a
// server dead-reckon one track to the same bits whatever they run on. On
// inputs where a fused multiply-add rounds differently, it gives the
// rounded sum, not the fused one. The test tells the two apart on arm64,
// where Go fuses x + v·dt unless the product is converted; CI runs it
// there.
func TestDeadReckonRoundsProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fused := 0
	for i := 0; i < 10000 && fused < 20; i++ {
		start := Pt(rng.Float64()*1000, rng.Float64()*1000)
		v := Vec(rng.Float64()*20-10, rng.Float64()*20-10)
		dt := rng.Float64() * 30
		want := Pt(start.X+float64(v.X*dt), start.Y+float64(v.Y*dt))
		if got := DeadReckon(start, v, dt); got != want {
			t.Fatalf("DeadReckon(%v, %v, %v) = %v, want the rounded %v", start, v, dt, got, want)
		}
		if math.FMA(v.X, dt, start.X) != want.X || math.FMA(v.Y, dt, start.Y) != want.Y {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("no input where a fused multiply-add rounds differently")
	}
}

// Dist is the square root of a sum of rounded products, bit for bit: an
// object and the server both measure the answer circle's boundary by it.
// The first inputs are ones where math.Hypot (assembly on amd64) rounds
// the distance an ulp apart from that root, the next ones where a fused
// multiply-add would; the random sweep then meets fused inputs of its
// own. The expected values are literals, so the test pins the same bits
// on every architecture; CI runs it on arm64 too.
func TestDistRoundsProducts(t *testing.T) {
	for _, c := range []struct {
		p, q Point
		want float64
	}{
		// Hypot differs on amd64.
		{Pt(424.637, 686.823), Pt(65.637, 156.519), 640.3931077205625},
		{Pt(214.264, 380.657), Pt(318.058, 468.89), 136.22869273761674},
		{Pt(293.114, 297.083), Pt(752.573, 206.583), 468.28711564701416},
		{Pt(865.335, 696.719), Pt(523.82, 28.303), 750.6080497043714},
		// A fused multiply-add differs.
		{Pt(572.087, 588.576), Pt(411.763, 552.58), 164.31523663981986},
		{Pt(570.852, 512.782), Pt(684.175, 653.04), 180.31752242364018},
		{Pt(645.039, 428.688), Pt(339.597, 887.448), 551.1402298544356},
	} {
		dx, dy := c.p.X-c.q.X, c.p.Y-c.q.Y
		if root := math.Sqrt(float64(dx*dx) + float64(dy*dy)); root != c.want {
			t.Fatalf("%v to %v: the rounded-product root is %v here, want %v", c.p, c.q, root, c.want)
		}
		if got := c.p.Dist(c.q); got != c.want {
			t.Errorf("Dist(%v, %v) = %v, want the rounded-product root %v", c.p, c.q, got, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	fused := 0
	for i := 0; i < 10000; i++ {
		p := Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := Pt(rng.Float64()*1000, rng.Float64()*1000)
		dx, dy := p.X-q.X, p.Y-q.Y
		want := math.Sqrt(float64(dx*dx) + float64(dy*dy))
		if got := p.Dist(q); got != want {
			t.Fatalf("Dist(%v, %v) = %v, want the rounded-product root %v", p, q, got, want)
		}
		if math.Sqrt(math.FMA(dx, dx, float64(dy*dy))) != want {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("no input where a fused multiply-add rounds the distance differently")
	}
}
