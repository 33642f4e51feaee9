package grid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

func world() geo.Rect { return geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)) }

func TestNewPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { New(world(), 0, 4) },
		func() { New(world(), 4, -1) },
		func() { New(geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 100)), 4, 4) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCellOfClampsOutside(t *testing.T) {
	g := New(world(), 10, 10)
	if c := g.CellOf(geo.Pt(-5, 500)); c != (Cell{0, 5}) {
		t.Errorf("left overshoot -> %v", c)
	}
	if c := g.CellOf(geo.Pt(1500, 1500)); c != (Cell{9, 9}) {
		t.Errorf("topright overshoot -> %v", c)
	}
	if c := g.CellOf(geo.Pt(1000, 1000)); c != (Cell{9, 9}) {
		t.Errorf("max corner -> %v", c)
	}
	if c := g.CellOf(geo.Pt(0, 0)); c != (Cell{0, 0}) {
		t.Errorf("min corner -> %v", c)
	}
}

func TestCellRectTilesWorld(t *testing.T) {
	g := New(world(), 8, 5)
	var area float64
	for row := 0; row < 5; row++ {
		for col := 0; col < 8; col++ {
			r := g.CellRect(Cell{col, row})
			area += r.Width() * r.Height()
		}
	}
	want := world().Width() * world().Height()
	if diff := area - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("cells area %v != world area %v", area, want)
	}
	// Every point maps to the cell whose rect contains it.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		c := g.CellOf(p)
		if !g.CellRect(c).Contains(p) {
			t.Fatalf("point %v not inside its cell %v rect %v", p, c, g.CellRect(c))
		}
	}
}

func TestInsertUpdateRemove(t *testing.T) {
	g := New(world(), 4, 4)
	if err := g.Insert(1, geo.Pt(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, geo.Pt(20, 20)); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
	if p, ok := g.Position(1); !ok || p != geo.Pt(10, 10) {
		t.Fatalf("Position = %v %v", p, ok)
	}
	// Same-cell update.
	if err := g.Update(1, geo.Pt(20, 20)); err != nil {
		t.Fatal(err)
	}
	// Cross-cell update.
	if err := g.Update(1, geo.Pt(900, 900)); err != nil {
		t.Fatal(err)
	}
	if p, _ := g.Position(1); p != geo.Pt(900, 900) {
		t.Fatalf("after update Position = %v", p)
	}
	if got := g.CellObjects(g.CellOf(geo.Pt(20, 20))); len(got) != 0 {
		t.Fatalf("old cell still holds %v", got)
	}
	if err := g.Update(99, geo.Pt(1, 1)); err == nil {
		t.Fatal("update of absent id should fail")
	}
	if err := g.Remove(99); err == nil {
		t.Fatal("remove of absent id should fail")
	}
	if err := g.Remove(1); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatalf("Len after remove = %d", g.Len())
	}
	if _, ok := g.Position(1); ok {
		t.Fatal("Position of removed id should be absent")
	}
}

// referenceIndex is the trivially correct map-based index the grid is
// property-tested against.
type referenceIndex map[model.ObjectID]geo.Point

func (r referenceIndex) knn(p geo.Point, k int, skip map[model.ObjectID]bool) []model.Neighbor {
	all := make([]model.Neighbor, 0, len(r))
	for id, pos := range r {
		if !skip[id] {
			all = append(all, model.Neighbor{ID: id, Dist: pos.Dist(p)})
		}
	}
	model.SortNeighbors(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func (r referenceIndex) rangeQ(c geo.Circle, skip map[model.ObjectID]bool) []model.Neighbor {
	var out []model.Neighbor
	for id, pos := range r {
		if d := pos.Dist(c.Center); d <= c.R && !skip[id] {
			out = append(out, model.Neighbor{ID: id, Dist: d})
		}
	}
	model.SortNeighbors(out)
	return out
}

// The grid against the brute-force reference over one random stream:
// inserts, updates (half of them small moves that mostly stay in the
// cell) and removes interleaved, a quarter of the positions snapped to a
// 50 m lattice so objects coincide and equal distances occur, then kNN
// and range searches with random skip sets, every result appended into
// one reused dst slice. Ties must come back in id order, with one
// exception: of several objects exactly tied at the k-th distance KNN
// keeps the ones it met first, not the lowest ids, so ids are not
// compared at that distance.
func TestGridMatchesReferenceUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(world(), 16, 16)
	ref := referenceIndex{}
	nextID := model.ObjectID(1)
	randPoint := func() geo.Point {
		p := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if rng.Intn(4) == 0 {
			p = geo.Pt(math.Round(p.X/50)*50, math.Round(p.Y/50)*50)
		}
		return p
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			id := nextID
			nextID++
			p := randPoint()
			if err := g.Insert(id, p); err != nil {
				t.Fatal(err)
			}
			ref[id] = p
		case op < 8: // update a random live object
			if len(ref) == 0 {
				continue
			}
			id := randomKey(rng, ref)
			p := randPoint()
			if rng.Intn(2) == 0 {
				p = world().Clamp(geo.Pt(ref[id].X+rng.Float64()*10-5, ref[id].Y+rng.Float64()*10-5))
			}
			if err := g.Update(id, p); err != nil {
				t.Fatal(err)
			}
			ref[id] = p
		default: // remove
			if len(ref) == 0 {
				continue
			}
			id := randomKey(rng, ref)
			if err := g.Remove(id); err != nil {
				t.Fatal(err)
			}
			delete(ref, id)
		}
	}
	if g.Len() != len(ref) {
		t.Fatalf("Len %d != reference %d", g.Len(), len(ref))
	}
	// Full content equality.
	for id, p := range ref {
		if got, ok := g.Position(id); !ok || got != p {
			t.Fatalf("object %d at %v (indexed %v), reference says %v", id, got, ok, p)
		}
	}
	randSkip := func() map[model.ObjectID]bool {
		if rng.Intn(2) == 0 {
			return nil
		}
		skip := map[model.ObjectID]bool{}
		for i := rng.Intn(30); i > 0; i-- {
			skip[randomKey(rng, ref)] = true
		}
		return skip
	}
	var dst []model.Neighbor
	ties := 0
	// kNN equivalence at random query points and ks.
	for q := 0; q < 200; q++ {
		p := randPoint()
		k := 1 + rng.Intn(25)
		skip := randSkip()
		dst = g.KNN(p, k, skip, dst[:0])
		want := ref.knn(p, k, skip)
		ok := len(dst) == len(want)
		for i := 0; ok && i < len(want); i++ {
			kth := want[i].Dist == want[len(want)-1].Dist
			ok = dst[i].Dist == want[i].Dist && (kth || dst[i].ID == want[i].ID)
		}
		if !ok {
			t.Fatalf("KNN(%v, %d, skip %d):\n got %v\nwant %v", p, k, len(skip), dst, want)
		}
	}
	// Range equivalence.
	for q := 0; q < 200; q++ {
		c := geo.Circle{Center: randPoint(), R: rng.Float64() * 300}
		skip := randSkip()
		dst = g.Range(c, skip, dst[:0])
		want := ref.rangeQ(c, skip)
		if !neighborsEqual(dst, want) {
			t.Fatalf("Range(%v, skip %d):\n got %d results\nwant %d", c, len(skip), len(dst), len(want))
		}
		for i := 1; i < len(want); i++ {
			if want[i].Dist == want[i-1].Dist {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Error("no two range results were equidistant: the lattice no longer produces distance ties")
	}
}

func randomKey(rng *rand.Rand, m referenceIndex) model.ObjectID {
	ids := make([]model.ObjectID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

func neighborsEqual(a, b []model.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
		if d := a[i].Dist - b[i].Dist; d > 1e-9 || d < -1e-9 {
			return false
		}
	}
	return true
}

func TestKNNEdgeCases(t *testing.T) {
	g := New(world(), 8, 8)
	if got := g.KNN(geo.Pt(1, 1), 3, nil, nil); got != nil {
		t.Fatalf("empty grid kNN = %v", got)
	}
	if got := g.KNN(geo.Pt(1, 1), 0, nil, nil); got != nil {
		t.Fatalf("k=0 kNN = %v", got)
	}
	for i := model.ObjectID(1); i <= 3; i++ {
		if err := g.Insert(i, geo.Pt(float64(i)*100, 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := g.KNN(geo.Pt(0, 0), 10, nil, nil)
	if len(got) != 3 {
		t.Fatalf("k larger than population: %v", got)
	}
	if got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Fatalf("order wrong: %v", got)
	}
}

func TestKNNSkipSet(t *testing.T) {
	g := New(world(), 8, 8)
	for i := model.ObjectID(1); i <= 5; i++ {
		if err := g.Insert(i, geo.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got := g.KNN(geo.Pt(0, 0), 2, map[model.ObjectID]bool{1: true, 2: true}, nil)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 4 {
		t.Fatalf("skip set ignored: %v", got)
	}
}

func TestRangeEdgeCases(t *testing.T) {
	g := New(world(), 8, 8)
	if err := g.Insert(1, geo.Pt(100, 100)); err != nil {
		t.Fatal(err)
	}
	if got := g.Range(geo.Circle{Center: geo.Pt(0, 0), R: -1}, nil, nil); got != nil {
		t.Fatalf("negative radius range = %v", got)
	}
	// Boundary-inclusive.
	got := g.Range(geo.Circle{Center: geo.Pt(100, 0), R: 100}, nil, nil)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("boundary object missed: %v", got)
	}
	got = g.Range(geo.Circle{Center: geo.Pt(100, 0), R: 99.999}, nil, nil)
	if len(got) != 0 {
		t.Fatalf("object outside included: %v", got)
	}
	// Skip set.
	got = g.Range(geo.Circle{Center: geo.Pt(100, 100), R: 10}, map[model.ObjectID]bool{1: true}, nil)
	if len(got) != 0 {
		t.Fatalf("skip set ignored: %v", got)
	}
}

func TestVisitCellsByMinDistOrderAndCoverage(t *testing.T) {
	g := New(world(), 12, 7)
	from := geo.Pt(333, 777)
	var last float64 = -1
	seen := map[Cell]bool{}
	g.VisitCellsByMinDist(from, func(c Cell, d float64) bool {
		if d < last {
			t.Fatalf("min-dist order violated: %v after %v", d, last)
		}
		last = d
		if seen[c] {
			t.Fatalf("cell %v visited twice", c)
		}
		seen[c] = true
		if want := g.CellRect(c).MinDist(from); want != d {
			t.Fatalf("reported dist %v != computed %v", d, want)
		}
		return true
	})
	if len(seen) != 12*7 {
		t.Fatalf("visited %d cells, want %d", len(seen), 12*7)
	}
}

func TestVisitCellsEarlyStop(t *testing.T) {
	g := New(world(), 10, 10)
	n := 0
	g.VisitCellsByMinDist(geo.Pt(500, 500), func(c Cell, d float64) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestCellsIntersecting(t *testing.T) {
	g := New(world(), 10, 10) // 100x100 cells
	// Tiny circle strictly inside one cell.
	cells := g.CellsIntersecting(geo.Circle{Center: geo.Pt(150, 150), R: 10})
	if len(cells) != 1 || cells[0] != (Cell{1, 1}) {
		t.Fatalf("tiny circle -> %v", cells)
	}
	// Circle centered on a cell corner touches 4 cells.
	cells = g.CellsIntersecting(geo.Circle{Center: geo.Pt(200, 200), R: 10})
	if len(cells) != 4 {
		t.Fatalf("corner circle -> %v", cells)
	}
	// Negative radius intersects nothing.
	if got := g.CellsIntersecting(geo.Circle{Center: geo.Pt(0, 0), R: -1}); got != nil {
		t.Fatalf("negative radius -> %v", got)
	}
	// Every returned cell really intersects; every omitted cell doesn't.
	c := geo.Circle{Center: geo.Pt(430, 611), R: 140}
	inSet := map[Cell]bool{}
	for _, cell := range g.CellsIntersecting(c) {
		inSet[cell] = true
		if !c.IntersectsRect(g.CellRect(cell)) {
			t.Fatalf("returned cell %v does not intersect", cell)
		}
	}
	for row := 0; row < 10; row++ {
		for col := 0; col < 10; col++ {
			cell := Cell{col, row}
			if !inSet[cell] && c.IntersectsRect(g.CellRect(cell)) {
				t.Fatalf("cell %v intersects but was omitted", cell)
			}
		}
	}
}

func BenchmarkGridUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := New(world(), 64, 64)
	const n = 20000
	pts := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if err := g.Insert(model.ObjectID(i+1), pts[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		p := pts[j]
		p.X += rng.Float64()*4 - 2
		p.Y += rng.Float64()*4 - 2
		p = world().Clamp(p)
		pts[j] = p
		if err := g.Update(model.ObjectID(j+1), p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	g := New(world(), 64, 64)
	const n = 20000
	for i := 0; i < n; i++ {
		if err := g.Insert(model.ObjectID(i+1), geo.Pt(rng.Float64()*1000, rng.Float64()*1000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KNN(geo.Pt(rng.Float64()*1000, rng.Float64()*1000), 10, nil, nil)
	}
}

// A reused scratch slice must yield the same results as fresh
// allocation, be recycled in place when capacity suffices, and never be
// required (nil dst always works).
func TestKNNRangeScratchReuse(t *testing.T) {
	g := New(geo.NewRect(geo.Pt(0, 0), geo.Pt(100, 100)), 4, 4)
	for i := 1; i <= 50; i++ {
		if err := g.Insert(model.ObjectID(i), geo.Pt(float64(i*2%100), float64(i*3%100))); err != nil {
			t.Fatal(err)
		}
	}
	q := geo.Pt(50, 50)
	fresh := g.KNN(q, 10, nil, nil)
	scratch := make([]model.Neighbor, 0, 32)
	reused := g.KNN(q, 10, nil, scratch)
	if !neighborsEqual(fresh, reused) {
		t.Fatalf("scratch KNN differs: %v vs %v", reused, fresh)
	}
	if &scratch[:1][0] != &reused[:1][0] {
		t.Error("KNN did not reuse the scratch backing array")
	}
	c := geo.Circle{Center: q, R: 30}
	freshR := g.Range(c, nil, nil)
	reusedR := g.Range(c, nil, reused[:0])
	if !neighborsEqual(freshR, reusedR) {
		t.Fatalf("scratch Range differs: %v vs %v", reusedR, freshR)
	}
	// Repeated calls with the grown buffer must not allocate the result
	// slice; the per-call search state (frontier heap, seen bitmap, sort
	// closure) stays — it cannot live on the Grid because searches run
	// concurrently. The nil-dst path pays at least one extra allocation.
	buf := reusedR
	withScratch := testing.AllocsPerRun(50, func() {
		buf = g.Range(c, nil, buf[:0])
	})
	withNil := testing.AllocsPerRun(50, func() {
		_ = g.Range(c, nil, nil)
	})
	if withScratch >= withNil {
		t.Errorf("scratch path allocates %v per call, nil path %v", withScratch, withNil)
	}
}

// VisitCellsIntersecting must enumerate exactly the CellsIntersecting set
// in the same order, honor early stop, and allocate nothing.
func TestVisitCellsIntersectingMatchesSlice(t *testing.T) {
	g := NewGeometry(world(), 10, 10)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		c := geo.Circle{
			Center: geo.Pt(rng.Float64()*1200-100, rng.Float64()*1200-100),
			R:      rng.Float64()*400 - 10, // sometimes negative
		}
		want := g.CellsIntersecting(c)
		var got []Cell
		g.VisitCellsIntersecting(c, func(cell Cell) bool {
			got = append(got, cell)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: visited %d cells, slice has %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: cell %d = %v, want %v (order must match)", trial, i, got[i], want[i])
			}
		}
	}

	// Early stop.
	seen := 0
	g.VisitCellsIntersecting(geo.Circle{Center: geo.Pt(500, 500), R: 400}, func(Cell) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Fatalf("early stop visited %d cells, want 3", seen)
	}

	// The visitor is the allocation-free hot path of the broadcast medium.
	c := geo.Circle{Center: geo.Pt(500, 500), R: 250}
	n := 0
	if allocs := testing.AllocsPerRun(50, func() {
		g.VisitCellsIntersecting(c, func(Cell) bool { n++; return true })
	}); allocs != 0 {
		t.Errorf("VisitCellsIntersecting allocates %v per call", allocs)
	}
}

// CellIndex must be the dense row-major index consistent with CellRect
// tiling and stay inside [0, NumCells).
func TestCellIndexDense(t *testing.T) {
	g := NewGeometry(world(), 7, 5)
	seen := make([]bool, g.NumCells())
	cols, rows := g.Dims()
	for row := 0; row < rows; row++ {
		for col := 0; col < cols; col++ {
			idx := g.CellIndex(Cell{col, row})
			if idx < 0 || idx >= g.NumCells() {
				t.Fatalf("CellIndex(%d,%d) = %d out of range", col, row, idx)
			}
			if seen[idx] {
				t.Fatalf("CellIndex(%d,%d) = %d collides", col, row, idx)
			}
			seen[idx] = true
		}
	}
}
