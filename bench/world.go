package main

import (
	"fmt"
	"math"
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/mobility"
	"dmknn/internal/model"
	"dmknn/internal/workload"
)

// Seed offsets shared with sim.NewEngine, so the harness and sim.Run
// generate identical trajectories and loss streams for a seed (the
// harness-equivalence test depends on it).
const (
	querySeedMix = 0x9E3779B9
	netSeedMix   = 0x51ED2701
)

// world is the load generator: the true kinematic state of every object
// and query focal point. The system under test sees it only through the
// agents' position sensors and the medium's position oracle.
type world struct {
	sp      spec
	objMdl  mobility.Model
	qryMdls []queryGroup
	objects []model.ObjectState
	queries []model.ObjectState // focal clients; ID is the network address
	specs   []model.QuerySpec
}

// queryGroup is one mobility model and the focal points it moves.
type queryGroup struct {
	mdl    mobility.Model
	states []model.ObjectState // sub-slice of world.queries
}

func newWorld(sp spec, seed int64) (*world, error) {
	w := &world{sp: sp}
	var err error
	if w.objMdl, err = sp.model(sp.world, seed); err != nil {
		return nil, fmt.Errorf("object model: %w", err)
	}
	w.objects = w.objMdl.Init(sp.objects)

	// One query model over the whole world, or (queryStrips > 0) one per
	// vertical strip with an equal share of the focal points each. The
	// strips stop two ticks of travel short of their borders, so no focal
	// point ever reaches the border of the strip it starts in.
	groups := max(sp.queryStrips, 1)
	stripW := sp.world.Width() / float64(groups)
	// Sized up front so the groups' sub-slices keep aliasing it.
	w.queries = make([]model.ObjectState, 0, sp.queries)
	for g := 0; g < groups; g++ {
		rect := sp.world
		if groups > 1 {
			rect.Min.X = sp.world.Min.X + float64(g)*stripW + 2*sp.maxSpeed
			rect.Max.X = sp.world.Min.X + float64(g+1)*stripW - 2*sp.maxSpeed
		}
		mdl, err := sp.model(rect, seed+querySeedMix+int64(g))
		if err != nil {
			return nil, fmt.Errorf("query model: %w", err)
		}
		n := sp.queries / groups
		if g < sp.queries%groups {
			n++
		}
		off := len(w.queries)
		w.queries = append(w.queries, mdl.Init(n)...)
		w.qryMdls = append(w.qryMdls, queryGroup{mdl: mdl, states: w.queries[off:]})
	}
	w.specs = make([]model.QuerySpec, sp.queries)
	for i := range w.queries {
		w.queries[i].ID = model.ObjectID(sp.objects + 1 + i)
		w.specs[i] = model.QuerySpec{
			ID:  model.QueryID(i + 1),
			K:   sp.k,
			Pos: w.queries[i].Pos,
			Vel: w.queries[i].Vel,
		}
	}
	return w, nil
}

// model builds the workload's mobility model over rect: speeds in
// [maxSpeed/4, maxSpeed], shape parameters the evaluation defaults of
// workload.ModelFactory except the hotspot count when the spec sets one.
func (sp spec) model(rect geo.Rect, seed int64) (mobility.Model, error) {
	lo := sp.maxSpeed / 4
	if sp.mobility == workload.ModelHotspot && sp.hotspots > 0 {
		cfg := mobility.Config{World: rect, MinSpeed: lo, MaxSpeed: sp.maxSpeed, Seed: seed}
		return mobility.NewHotspot(cfg, sp.hotspots, sp.world.Width()/40, 0.1)
	}
	f, err := workload.ModelFactory(sp.mobility, rect, lo, sp.maxSpeed)
	if err != nil {
		return nil, err
	}
	return f(seed)
}

// step advances every object and focal point by one tick. Serial: each
// mobility model draws from one RNG stream for its whole population.
func (w *world) step() {
	w.objMdl.Step(w.objects, 1)
	for _, g := range w.qryMdls {
		g.mdl.Step(g.states, 1)
	}
}

// refGrid is the benchmark's own reference index: a uniform bucket grid
// rebuilt from the true positions each tick by counting sort. It shares
// no code with the system under test.
type refGrid struct {
	minX, minY   float64
	cellW, cellH float64
	cols, rows   int
	start        []int32 // start[c]..start[c+1] indexes ids for cell c
	ids          []int32 // object slice indices, grouped by cell
	cellOf       []int32
	fill         []int32 // per-cell write cursor during rebuild
}

func newRefGrid(w *world) *refGrid {
	// About 8 objects per cell keeps both rebuild and lookups cheap.
	side := int(math.Sqrt(float64(len(w.objects))/8)) + 1
	r := w.sp.world
	return &refGrid{
		minX: r.Min.X, minY: r.Min.Y,
		cellW: r.Width() / float64(side), cellH: r.Height() / float64(side),
		cols: side, rows: side,
		start:  make([]int32, side*side+1),
		ids:    make([]int32, len(w.objects)),
		cellOf: make([]int32, len(w.objects)),
		fill:   make([]int32, side*side),
	}
}

func (g *refGrid) clampCol(x float64) int {
	return min(max(int((x-g.minX)/g.cellW), 0), g.cols-1)
}

func (g *refGrid) clampRow(y float64) int {
	return min(max(int((y-g.minY)/g.cellH), 0), g.rows-1)
}

func (g *refGrid) rebuild(objs []model.ObjectState) {
	clear(g.start)
	for i := range objs {
		c := int32(g.clampRow(objs[i].Pos.Y)*g.cols + g.clampCol(objs[i].Pos.X))
		g.cellOf[i] = c
		g.start[c+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	copy(g.fill, g.start)
	for i := range objs {
		c := g.cellOf[i]
		g.ids[g.fill[c]] = int32(i)
		g.fill[c]++
	}
}

// visitWithin calls fn with the slice index of every object whose cell
// intersects the axis-aligned box around (x, y) with half-side r.
func (g *refGrid) visitWithin(x, y, r float64, fn func(i int32)) {
	c0, c1 := g.clampCol(x-r), g.clampCol(x+r)
	r0, r1 := g.clampRow(y-r), g.clampRow(y+r)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			c := row*g.cols + col
			for _, i := range g.ids[g.start[c]:g.start[c+1]] {
				fn(i)
			}
		}
	}
}

// inexact describes the first audited answer that was not a correct kNN.
type inexact struct {
	query model.QueryID
	tick  model.Tick
	got   []model.ObjectID
	want  []model.ObjectID
}

func (e *inexact) String() string {
	return fmt.Sprintf("query %d at tick %d: got %v want %v", e.query, e.tick, e.got, e.want)
}

// auditor checks every query's client-visible answer against the true
// positions. An answer is exact when it names min(k, N) distinct live
// objects and no object outside it is closer than its farthest member
// (beyond a float tolerance) — membership equality with the reference
// kNN, tolerant of ties at the k-th distance.
type auditor struct {
	w        *world
	grid     *refGrid
	audited  int
	bad      int
	first    *inexact
	inAnswer []bool // scratch, indexed by object slice index
}

func newAuditor(w *world) *auditor {
	return &auditor{w: w, grid: newRefGrid(w), inAnswer: make([]bool, len(w.objects))}
}

// check audits one tick; answer(i) returns query i's client-visible
// answer.
func (a *auditor) check(now model.Tick, answer func(i int) model.Answer) {
	a.grid.rebuild(a.w.objects)
	for i := range a.w.queries {
		got := answer(i)
		a.audited++
		if !a.exact(i, got) {
			a.bad++
			if a.first == nil {
				a.first = &inexact{
					query: a.w.specs[i].ID, tick: now,
					got: sortedIDs(got), want: a.scanKNN(i),
				}
			}
		}
	}
}

func (a *auditor) exact(qi int, got model.Answer) bool {
	objs := a.w.objects
	want := min(a.w.sp.k, len(objs))
	if len(got.Neighbors) != want {
		return false
	}
	q := a.w.queries[qi].Pos
	far := 0.0
	ok := true
	for _, n := range got.Neighbors {
		idx := int(n.ID) - 1
		if idx < 0 || idx >= len(objs) || a.inAnswer[idx] {
			ok = false // unknown id or duplicate member
			break
		}
		a.inAnswer[idx] = true
		far = max(far, math.Hypot(objs[idx].Pos.X-q.X, objs[idx].Pos.Y-q.Y))
	}
	if ok {
		limit := far - (1e-6 + far*1e-9)
		a.grid.visitWithin(q.X, q.Y, far, func(i int32) {
			if !a.inAnswer[i] && math.Hypot(objs[i].Pos.X-q.X, objs[i].Pos.Y-q.Y) < limit {
				ok = false
			}
		})
	}
	for _, n := range got.Neighbors {
		if idx := int(n.ID) - 1; idx >= 0 && idx < len(objs) {
			a.inAnswer[idx] = false
		}
	}
	return ok
}

// scanKNN is the plain-scan reference, used only to print the wanted
// ids of the first failing answer.
func (a *auditor) scanKNN(qi int) []model.ObjectID {
	q := a.w.queries[qi].Pos
	type cand struct {
		id model.ObjectID
		d  float64
	}
	cs := make([]cand, len(a.w.objects))
	for i, o := range a.w.objects {
		cs[i] = cand{o.ID, math.Hypot(o.Pos.X-q.X, o.Pos.Y-q.Y)}
	}
	slices.SortFunc(cs, func(x, y cand) int {
		if x.d != y.d {
			if x.d < y.d {
				return -1
			}
			return 1
		}
		return int(x.id) - int(y.id)
	})
	cs = cs[:min(a.w.sp.k, len(cs))]
	ids := make([]model.ObjectID, len(cs))
	for i, c := range cs {
		ids[i] = c.id
	}
	slices.Sort(ids)
	return ids
}

func sortedIDs(a model.Answer) []model.ObjectID {
	ids := a.IDs()
	slices.Sort(ids)
	return ids
}
