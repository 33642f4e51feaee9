package grid_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/workload"
)

// edgeGeometries are the layouts the edge tables are checked on: the
// benchmark's 10 km world on 64 × 64, the unit tests' 1 km world on
// 16 × 16, and a 1 km world in 6 columns and 12 rows, whose cell width and
// height are not representable: there Min + c·cellW lands one ulp off the
// point where CellOf switches at one column edge and four row edges.
func edgeGeometries() []grid.Geometry {
	d, q := workload.Default(), workload.Quick()
	return []grid.Geometry{
		grid.NewGeometry(d.World, d.Cols, d.Rows),
		grid.NewGeometry(q.World, q.Cols, q.Rows),
		grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 6, 12),
	}
}

// lookup returns the cell whose edges enclose v, and false when none does.
func lookup(e []float64, v float64) (int, bool) {
	for c := 0; c+1 < len(e); c++ {
		if e[c] <= v && v < e[c+1] {
			return c, true
		}
	}
	return 0, false
}

// Every edge is where CellOf switches: the edge itself is in the higher
// cell and the float just below it in the lower one. The outer edges are
// −∞ and the point above the last cell where CellOf stops placing there
// (+∞ when it never does).
func TestEdgesAreCellOfs(t *testing.T) {
	for _, g := range edgeGeometries() {
		cols, rows := g.Dims()
		b := g.Bounds()
		xs, ys := g.Edges()
		for _, ax := range []struct {
			name string
			e    []float64
			n    int
			cell func(float64) int
		}{
			{"x", xs, cols, func(x float64) int { return g.CellOf(geo.Pt(x, b.Min.Y)).Col }},
			{"y", ys, rows, func(y float64) int { return g.CellOf(geo.Pt(b.Min.X, y)).Row }},
		} {
			t.Run(fmt.Sprintf("%dx%d/%s", cols, rows, ax.name), func(t *testing.T) {
				if len(ax.e) != ax.n+1 || !math.IsInf(ax.e[0], -1) {
					t.Fatalf("%d edges starting at %v, want %d starting at -Inf", len(ax.e), ax.e[0], ax.n+1)
				}
				for c := 1; c < ax.n; c++ {
					below := math.Nextafter(ax.e[c], math.Inf(-1))
					if got, low := ax.cell(ax.e[c]), ax.cell(below); got != c || low != c-1 {
						t.Errorf("edge %d at %v: CellOf gives %d there and %d one ulp below, want %d and %d",
							c, ax.e[c], got, low, c, c-1)
					}
				}
				top := ax.e[ax.n]
				if below := math.Nextafter(top, math.Inf(-1)); ax.cell(below) != ax.n-1 ||
					(!math.IsInf(top, 1) && ax.cell(top) == ax.n-1) {
					t.Errorf("top edge %v: CellOf gives %d one ulp below and %d there", top, ax.cell(below), ax.cell(top))
				}
			})
		}
	}
}

// The comparison against the edges agrees with CellOf wherever it places a
// point, and places every point CellOf can be asked about except NaN, +∞
// and, where the float-to-int conversion overflows, finite points beyond
// the top edge: on-grid points Min + k·cellW and one ulp either side,
// random points in and around the world, points far outside, and ±∞.
func TestEdgesMatchCellOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range edgeGeometries() {
		cols, rows := g.Dims()
		b := g.Bounds()
		xs, ys := g.Edges()
		cw, ch := b.Width()/float64(cols), b.Height()/float64(rows)
		axis := func(lo, w float64, n int) []float64 {
			var vs []float64
			for k := -2; k <= n+2; k++ {
				v := lo + float64(k)*w
				vs = append(vs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
			}
			for range 200 {
				vs = append(vs, lo+(rng.Float64()*1.2-0.1)*w*float64(n))
			}
			return append(vs, -1e300, 1e300, -math.MaxFloat64, math.MaxFloat64,
				math.Inf(-1), math.Inf(1), math.NaN())
		}
		px, py := axis(b.Min.X, cw, cols), axis(b.Min.Y, ch, rows)
		t.Run(fmt.Sprintf("%dx%d", cols, rows), func(t *testing.T) {
			for _, x := range px {
				for _, y := range py {
					p := geo.Pt(x, y)
					want := g.CellOf(p)
					col, okX := lookup(xs, x)
					row, okY := lookup(ys, y)
					if okX && col != want.Col || okY && row != want.Row {
						t.Fatalf("point %v: edges give (%d, %d), CellOf %v", p, col, row, want)
					}
					unplaced := func(v float64, e []float64) bool { return math.IsNaN(v) || v >= e[len(e)-1] }
					if !okX && !unplaced(x, xs) || !okY && !unplaced(y, ys) {
						t.Fatalf("point %v in %v: the edges place it in no cell", p, want)
					}
				}
			}
		})
	}
}
