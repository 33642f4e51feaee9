// Package grid implements a uniform in-memory grid index over moving
// objects, the standard server-side structure in the continuous
// spatio-temporal query literature (SINA, SEA-CNN, CPM, YPK-CNN all build
// on one). The world rectangle is divided into cols × rows equal cells;
// each cell holds the objects currently inside it; updates move objects
// between cells in O(1).
//
// Search entry points:
//
//   - KNN: best-first expansion of cells ordered by minimum distance to
//     the query point (conceptual-partitioning style), provably visiting
//     no cell whose min distance exceeds the k-th candidate distance.
//   - Range: all objects inside a circle.
//   - VisitCellsByMinDist: the raw ordered-cell iterator, used by the
//     distributed protocol to address cell-granular broadcasts in
//     expanding rings.
//
// The index is not safe for concurrent mutation, but any number of
// read-only searches (KNN, Range, VisitCellsByMinDist, Position) may run
// concurrently as long as no Insert/Update/Remove is in flight; the
// simulation engine's parallel auditor and the TCP server both rely on
// that (see their docs).
package grid

import (
	"fmt"
	"math"

	"dmknn/internal/container/pq"
	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// Cell addresses one grid cell by column and row.
type Cell struct {
	Col, Row int
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("cell(%d,%d)", c.Col, c.Row) }

// Geometry is the cell layout of a uniform grid: the world rectangle
// divided into cols × rows equal cells. It is separate from the index so
// that components that only need cell addressing — notably the simulated
// wireless network, which resolves cell-granular broadcasts — can share
// the exact layout without holding object state.
type Geometry struct {
	bounds     geo.Rect
	cols, rows int
	cellW      float64
	cellH      float64
}

// NewGeometry returns the cell layout for the given world and dimensions.
// It panics on degenerate input, since a grid with zero extent is a
// programming error, not a runtime condition.
func NewGeometry(bounds geo.Rect, cols, rows int) Geometry {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %dx%d", cols, rows))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate bounds %v", bounds))
	}
	return Geometry{
		bounds: bounds,
		cols:   cols,
		rows:   rows,
		cellW:  bounds.Width() / float64(cols),
		cellH:  bounds.Height() / float64(rows),
	}
}

// Bounds returns the world rectangle the grid covers.
func (g Geometry) Bounds() geo.Rect { return g.bounds }

// Dims returns the number of columns and rows.
func (g Geometry) Dims() (cols, rows int) { return g.cols, g.rows }

// NumCells returns cols × rows.
func (g Geometry) NumCells() int { return g.cols * g.rows }

// CellOf returns the cell containing p. Points outside the bounds are
// clamped to the border cells, so the grid tolerates small numeric
// overshoot from mobility models.
func (g Geometry) CellOf(p geo.Point) Cell {
	col := int((p.X - g.bounds.Min.X) / g.cellW)
	row := int((p.Y - g.bounds.Min.Y) / g.cellH)
	if col < 0 {
		col = 0
	} else if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.rows {
		row = g.rows - 1
	}
	return Cell{col, row}
}

// CellRect returns the rectangle covered by cell c.
func (g Geometry) CellRect(c Cell) geo.Rect {
	minX := g.bounds.Min.X + float64(c.Col)*g.cellW
	minY := g.bounds.Min.Y + float64(c.Row)*g.cellH
	return geo.Rect{
		Min: geo.Pt(minX, minY),
		Max: geo.Pt(minX+g.cellW, minY+g.cellH),
	}
}

// VisitCellsIntersecting calls visit for every cell whose rectangle
// intersects the circle, in row-major order (the same order
// CellsIntersecting returns), stopping early when visit returns false.
// It allocates nothing: the simulated network iterates broadcast cell
// unions with it on every send and every delivery.
func (g Geometry) VisitCellsIntersecting(c geo.Circle, visit func(Cell) bool) {
	if c.R < 0 {
		return
	}
	br := c.BoundingRect()
	lo := g.CellOf(br.Min)
	hi := g.CellOf(br.Max)
	for row := lo.Row; row <= hi.Row; row++ {
		for col := lo.Col; col <= hi.Col; col++ {
			cell := Cell{col, row}
			if c.IntersectsRect(g.CellRect(cell)) && !visit(cell) {
				return
			}
		}
	}
}

// CellsIntersecting returns every cell whose rectangle intersects the
// circle. The distributed server uses it to address monitor-install
// broadcasts; callers on a hot path should prefer VisitCellsIntersecting,
// which does not allocate the result slice.
func (g Geometry) CellsIntersecting(c geo.Circle) []Cell {
	var out []Cell
	g.VisitCellsIntersecting(c, func(cell Cell) bool {
		out = append(out, cell)
		return true
	})
	return out
}

// CellIndex returns the dense row-major index of cell c in [0, NumCells).
// Components that keep per-cell state in a flat slice (the simulated
// network's client index, the grid's own object buckets) address it with
// this.
func (g Geometry) CellIndex(c Cell) int { return c.Row*g.cols + c.Col }

type entry struct {
	pos  geo.Point
	cell Cell
	// index of this object inside its cell's slice, for O(1) removal.
	slot int
}

// Grid is a uniform grid index over point objects.
type Grid struct {
	Geometry
	cells   [][]model.ObjectID // cells[row*cols+col] = object ids inside
	objects map[model.ObjectID]*entry
}

// New creates a grid index over the world rectangle with the given number
// of columns and rows. It panics if the geometry is degenerate, since a
// grid with zero extent is a programming error, not a runtime condition.
func New(bounds geo.Rect, cols, rows int) *Grid {
	geom := NewGeometry(bounds, cols, rows)
	return &Grid{
		Geometry: geom,
		cells:    make([][]model.ObjectID, geom.NumCells()),
		objects:  make(map[model.ObjectID]*entry),
	}
}

// Len returns the number of indexed objects.
func (g *Grid) Len() int { return len(g.objects) }

// Insert adds an object at position p. Inserting an id that is already
// present is an error; use Update to move objects.
func (g *Grid) Insert(id model.ObjectID, p geo.Point) error {
	if _, ok := g.objects[id]; ok {
		return fmt.Errorf("grid: object %d already present", id)
	}
	c := g.CellOf(p)
	idx := c.Row*g.cols + c.Col
	g.cells[idx] = append(g.cells[idx], id)
	g.objects[id] = &entry{pos: p, cell: c, slot: len(g.cells[idx]) - 1}
	return nil
}

// Update moves an existing object to position p. Updating an absent id is
// an error.
func (g *Grid) Update(id model.ObjectID, p geo.Point) error {
	e, ok := g.objects[id]
	if !ok {
		return fmt.Errorf("grid: object %d not present", id)
	}
	nc := g.CellOf(p)
	if nc == e.cell {
		e.pos = p
		return nil
	}
	g.removeFromCell(id, e)
	idx := nc.Row*g.cols + nc.Col
	g.cells[idx] = append(g.cells[idx], id)
	e.pos = p
	e.cell = nc
	e.slot = len(g.cells[idx]) - 1
	return nil
}

// Remove deletes an object from the index. Removing an absent id is an
// error.
func (g *Grid) Remove(id model.ObjectID) error {
	e, ok := g.objects[id]
	if !ok {
		return fmt.Errorf("grid: object %d not present", id)
	}
	g.removeFromCell(id, e)
	delete(g.objects, id)
	return nil
}

// Position returns the indexed position of id.
func (g *Grid) Position(id model.ObjectID) (geo.Point, bool) {
	e, ok := g.objects[id]
	if !ok {
		return geo.Point{}, false
	}
	return e.pos, true
}

// removeFromCell unlinks id from its current cell using swap-with-last.
func (g *Grid) removeFromCell(id model.ObjectID, e *entry) {
	idx := e.cell.Row*g.cols + e.cell.Col
	cell := g.cells[idx]
	last := len(cell) - 1
	if e.slot != last {
		moved := cell[last]
		cell[e.slot] = moved
		g.objects[moved].slot = e.slot
	}
	g.cells[idx] = cell[:last]
}

// CellObjects returns the ids currently inside cell c. The returned slice
// is the grid's internal storage: callers must not retain or mutate it.
func (g *Grid) CellObjects(c Cell) []model.ObjectID {
	return g.cells[c.Row*g.cols+c.Col]
}

// VisitCellsByMinDist visits cells in non-decreasing order of their
// minimum distance to p, calling visit with the cell and that distance.
// The visit stops when visit returns false or all cells were seen.
//
// This is the best-first frontier used by both the centralized kNN and the
// probe-ring broadcasts of the distributed protocol.
func (g *Grid) VisitCellsByMinDist(p geo.Point, visit func(c Cell, minDist float64) bool) {
	start := g.CellOf(p)
	h := pq.NewMin[Cell](64)
	seen := make([]bool, g.cols*g.rows)
	push := func(c Cell) {
		if c.Col < 0 || c.Col >= g.cols || c.Row < 0 || c.Row >= g.rows {
			return
		}
		idx := c.Row*g.cols + c.Col
		if seen[idx] {
			return
		}
		seen[idx] = true
		h.Push(g.CellRect(c).MinDist(p), c)
	}
	push(start)
	for h.Len() > 0 {
		d, c := h.Pop()
		if !visit(c, d) {
			return
		}
		push(Cell{c.Col - 1, c.Row})
		push(Cell{c.Col + 1, c.Row})
		push(Cell{c.Col, c.Row - 1})
		push(Cell{c.Col, c.Row + 1})
		// Diagonal neighbors are reachable through laterals with equal or
		// smaller min distance, so 4-connectivity suffices for ordering;
		// we still push them to guarantee full coverage on early rings.
		push(Cell{c.Col - 1, c.Row - 1})
		push(Cell{c.Col + 1, c.Row - 1})
		push(Cell{c.Col - 1, c.Row + 1})
		push(Cell{c.Col + 1, c.Row + 1})
	}
}

// KNN returns the k nearest objects to p in ascending distance order
// (ties broken by id). Fewer than k results means the index holds fewer
// than k objects. The skip set, if non-nil, excludes specific ids (used to
// exclude a query's own focal object).
//
// dst, if non-nil, is a scratch slice the result is appended into
// (starting at dst[:0]), letting hot callers — the auditor evaluates
// every query every tick — amortize the result allocation across calls.
// Pass nil to allocate a fresh slice.
func (g *Grid) KNN(p geo.Point, k int, skip map[model.ObjectID]bool, dst []model.Neighbor) []model.Neighbor {
	if k <= 0 || len(g.objects) == 0 {
		return nil
	}
	best := pq.NewBoundedMax[model.ObjectID](k)
	g.VisitCellsByMinDist(p, func(c Cell, minDist float64) bool {
		if best.Full() && minDist > best.Worst() {
			return false // no remaining cell can improve the answer
		}
		for _, id := range g.CellObjects(c) {
			if skip != nil && skip[id] {
				continue
			}
			best.Offer(g.objects[id].pos.Dist(p), id)
		}
		return true
	})
	dists, ids := best.Drain()
	out := dst[:0]
	for i := range ids {
		out = append(out, model.Neighbor{ID: ids[i], Dist: dists[i]})
	}
	stabilize(out)
	return out
}

// Range returns every object within the circle, in ascending distance
// order with ties broken by id. dst, if non-nil, is a scratch slice the
// result is appended into (starting at dst[:0]); pass nil to allocate.
func (g *Grid) Range(c geo.Circle, skip map[model.ObjectID]bool, dst []model.Neighbor) []model.Neighbor {
	if c.R < 0 || len(g.objects) == 0 {
		return nil
	}
	out := dst[:0]
	rsq := c.R * c.R
	g.VisitCellsByMinDist(c.Center, func(cell Cell, minDist float64) bool {
		if minDist > c.R {
			return false
		}
		for _, id := range g.CellObjects(cell) {
			if skip != nil && skip[id] {
				continue
			}
			if dsq := g.objects[id].pos.DistSq(c.Center); dsq <= rsq {
				out = append(out, model.Neighbor{ID: id, Dist: math.Sqrt(dsq)})
			}
		}
		return true
	})
	model.SortNeighbors(out)
	return out
}

// stabilize re-sorts equal-distance runs by id so the result is fully
// deterministic. The input is already distance-sorted by Drain.
func stabilize(ns []model.Neighbor) {
	model.SortNeighbors(ns)
}
