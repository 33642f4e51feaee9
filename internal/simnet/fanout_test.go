package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dmknn/internal/container"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// tagRec records the tag (Query field) of every broadcast it hears, so two
// networks' per-client delivery sequences can be compared exactly. hook,
// when set, runs once from inside the next broadcast delivery: the scripted
// scenarios use it to attach clients in the middle of a fan-out.
type tagRec struct {
	seen []model.QueryID
	hook func()
}

func (r *tagRec) HandleServerMessage(m protocol.Message) {
	if a, ok := m.(protocol.AnswerUpdate); ok {
		r.seen = append(r.seen, a.Query)
		if f := r.hook; f != nil {
			r.hook = nil
			f()
		}
	}
}

// fanoutWorld drives one network through a scripted scenario and keeps its
// own books — who is attached, where everyone is — independent of the
// network's client table, so the linear oracle below shares nothing with
// the indexed fan-out but the loss generators and the counters.
type fanoutWorld struct {
	net  *Network
	recs map[model.ObjectID]*tagRec // one recorder per id, kept across re-attaches
	live map[model.ObjectID]transport.ClientHandler

	// Positions, indexed by id: the network's oracle reads two slices, so
	// the benchmarks time the medium and not a map of the test's.
	pos []geo.Point
	has []bool

	ids     []model.ObjectID // sorted attached ids, for the linear oracle
	idsDirt bool
}

func newFanoutWorld(cfg Config, linear bool) *fanoutWorld {
	w := &fanoutWorld{
		net:  New(cfg),
		recs: make(map[model.ObjectID]*tagRec),
		live: make(map[model.ObjectID]transport.ClientHandler),
	}
	if linear {
		w.net.refBroadcast = w.deliverLinear
	}
	w.net.SetPositionOracle(func(id model.ObjectID) (geo.Point, bool) {
		if int(id) >= len(w.pos) {
			return geo.Point{}, false
		}
		return w.pos[id], w.has[id]
	})
	return w
}

// rec returns id's recorder, creating it on first use.
func (w *fanoutWorld) rec(id model.ObjectID) *tagRec {
	r := w.recs[id]
	if r == nil {
		r = &tagRec{}
		w.recs[id] = r
	}
	return r
}

// place puts id at p (ok=false: the oracle stops placing it).
func (w *fanoutWorld) place(id model.ObjectID, p geo.Point, ok bool) {
	for int(id) >= len(w.pos) {
		w.pos = append(w.pos, geo.Point{})
		w.has = append(w.has, false)
	}
	w.pos[id], w.has[id] = p, ok
}

func (w *fanoutWorld) attach(id model.ObjectID, p geo.Point) {
	w.place(id, p, true)
	w.reattach(id)
}

// reattach attaches id where the oracle already has it.
func (w *fanoutWorld) reattach(id model.ObjectID) {
	w.live[id] = w.rec(id)
	w.idsDirt = true
	w.net.AttachClient(id, w.rec(id))
}

// deliverLinear is the Θ(clients) reference fan-out the indexed path must
// match bit for bit (recipients, counters and both RNG streams): for each
// broadcast, walk every attached client in id order and test its current
// cell against the region. Membership, handlers and positions come from
// the world's own books, never from the network's client table.
func (w *fanoutWorld) deliverLinear(q queued) int {
	return w.linearFanout(q.b.region, q.b.filter, q.msg)
}

func (w *fanoutWorld) linearFanout(region geo.Circle, filter func(grid.Cell) bool, msg protocol.Message) int {
	n := w.net
	inCell := make(map[grid.Cell]bool)
	for _, c := range n.cfg.Geometry.CellsIntersecting(region) {
		if filter == nil || filter(c) {
			inCell[c] = true
		}
	}
	delivered := 0
	for _, id := range w.sortedIDs() {
		if !w.has[id] || !inCell[n.cfg.Geometry.CellOf(w.pos[id])] {
			continue
		}
		h := w.live[id]
		if n.isDown(id) || n.lose(n.cfg.BroadcastLoss) || n.geLose(metrics.Broadcast) {
			n.counters.RecordDrop(metrics.Broadcast)
			if n.trace != nil {
				n.emit(obs.EvNetDrop, metrics.Broadcast, id, msg.Kind())
			}
			continue
		}
		n.counters.RecordDeliver(metrics.Broadcast)
		if n.trace != nil {
			n.emit(obs.EvNetDeliver, metrics.Broadcast, id, msg.Kind())
		}
		h.HandleServerMessage(msg)
		delivered++
	}
	return delivered
}

// sortedIDs is the attached population at the start of a broadcast, in id
// order. It is rebuilt in place, which is safe because handlers enqueue
// and never deliver: no broadcast starts while another one is ranging it.
func (w *fanoutWorld) sortedIDs() []model.ObjectID {
	if w.idsDirt {
		w.ids = w.ids[:0]
		for id := range w.live {
			w.ids = append(w.ids, id)
		}
		slices.Sort(w.ids)
		w.idsDirt = false
	}
	return w.ids
}

// scriptHits counts how often a scripted run really produced the table's
// edge cases, so a scenario that silently stopped reaching them fails.
type scriptHits struct {
	runs         int
	midFlush     int // attach while the index was fresh
	unlocated    int // oracle lost a client that sat in a cell
	downThenLive int // marked down before it was ever attached
	wideRegion   int // broadcast covering at least 100 cells
	onEdge       int // client crossed a cell edge between on it and one ulp below
}

func (h *scriptHits) add(o scriptHits) {
	h.runs++
	h.midFlush += o.midFlush
	h.unlocated += o.unlocated
	h.downThenLive += o.downThenLive
	h.wideRegion += o.wideRegion
	h.onEdge += o.onEdge
}

// check is meaningful over a test's full seed list only; a -run filter
// that selects fewer subtests skips it.
func (h scriptHits) check(t *testing.T, seeds int) {
	t.Helper()
	if h.runs < seeds {
		return
	}
	if h.midFlush == 0 || h.unlocated == 0 || h.downThenLive == 0 || h.wideRegion == 0 || h.onEdge == 0 {
		t.Errorf("scripted scenarios missed an edge case they exist for: %+v", h)
	}
}

// fanoutItem is one region broadcast of a scripted tick.
type fanoutItem struct {
	region geo.Circle
	msg    protocol.Message
}

// runFanoutScript drives an indexed and a linear-oracle network through
// the same scripted random scenario and demands they be indistinguishable:
// identical per-client delivery sequences, identical counters per
// direction, identical duplication counts, and identical consumption of
// both the base-loss and fault RNG streams. The script draws from its own
// generator, so both worlds perform identical operations in identical
// order.
//
// Besides random movement, attach and down/up churn between flushes, the
// script plants one-shot hooks that act from inside a fan-out: each pins
// its trigger client on a spot, and when the trigger hears a broadcast it
// attaches a brand-new id on the spot while the index is fresh, which
// later broadcasts of the same flush must reach.
//
// Every five ticks also walk one client around a cell corner, crossing one
// edge a tick between exactly on it and one ulp below it — up across the
// column edge, up across the row edge, then back down across each — where
// the refresh's comparison against the edges is the only thing that can
// tell the two cells apart.
func runFanoutScript(t *testing.T, cfg Config, scriptSeed int64) scriptHits {
	script := rand.New(rand.NewSource(scriptSeed))
	randPt := func() geo.Point {
		return geo.Pt(script.Float64()*1000, script.Float64()*1000)
	}
	a := newFanoutWorld(cfg, false) // indexed (production) path
	b := newFanoutWorld(cfg, true)  // linear oracle
	worlds := []*fanoutWorld{a, b}
	var hits scriptHits

	nextID := model.ObjectID(1)
	attachNew := func(p geo.Point) {
		for _, w := range worlds {
			w.attach(nextID, p)
		}
		nextID++
	}
	for i := 0; i < 60; i++ {
		attachNew(randPt())
	}
	// Clients a pending hook holds in place until it fires.
	pinned := make(map[model.ObjectID]bool)

	xs, ys := cfg.Geometry.Edges()
	cols, rows := cfg.Geometry.Dims()
	var edgeID model.ObjectID
	var items []fanoutItem
	for tick := model.Tick(1); tick <= 50; tick++ {
		// Move ~half the population; now and then the oracle loses one.
		for id := model.ObjectID(1); id < nextID; id++ {
			if pinned[id] || script.Intn(2) == 0 {
				continue
			}
			p, ok := randPt(), script.Intn(12) != 0
			if !ok && a.live[id] != nil && a.net.slots[a.net.slotOf[id]].cell >= 0 {
				hits.unlocated++
			}
			for _, w := range worlds {
				w.place(id, p, ok)
			}
		}
		// Churn: occasionally attach a newcomer, sometimes one that was
		// marked down before it ever attached.
		if script.Intn(4) == 0 {
			if script.Intn(3) == 0 {
				for _, w := range worlds {
					w.net.SetClientDown(nextID, true)
				}
				hits.downThenLive++
			}
			attachNew(randPt())
		}
		// Down/up churn (down ids may or may not be attached).
		if script.Intn(3) == 0 {
			id := model.ObjectID(script.Intn(int(nextID)) + 1)
			down := script.Intn(2) == 0
			for _, w := range worlds {
				w.net.SetClientDown(id, down)
			}
		}
		// Plant a mid-fan-out hook (see the function comment).
		if script.Intn(2) == 0 {
			trigger := model.ObjectID(script.Intn(int(nextID)-1) + 1)
			spot, newcomer := randPt(), nextID
			nextID++
			if !pinned[trigger] && a.live[trigger] != nil {
				pinned[trigger] = true
				for _, w := range worlds {
					w := w
					w.place(trigger, spot, true)
					w.rec(trigger).hook = func() {
						pinned[trigger] = false
						w.attach(newcomer, spot)
						if w == a && a.net.indexFresh {
							hits.midFlush++
						}
					}
				}
			}
		}
		// One to three broadcasts with varied coverage, including
		// degenerate regions that cover no cells.
		items = items[:0]
		for j := script.Intn(3) + 1; j > 0; j-- {
			r := script.Float64()*300 - 10
			c := geo.Circle{Center: randPt(), R: r}
			tag := protocol.AnswerUpdate{Query: model.QueryID(tick*100 + model.Tick(j))}
			items = append(items, fanoutItem{c, tag})
		}
		// The corner walk (see the function comment), drawn from no
		// generator, so the rest of the script is what it was. A region
		// inside the client's cell of this tick delivers at the next
		// flush, when the client has walked on: only a refresh that left
		// it in this cell lets it hear the region.
		k, phase := int(tick-1)/5, int(tick-1)%5
		e, f := 1+k%(cols-1), 1+k*7%(rows-1)
		bx, by := math.Nextafter(xs[e], math.Inf(-1)), math.Nextafter(ys[f], math.Inf(-1))
		walk := [5]geo.Point{{X: bx, Y: by}, {X: xs[e], Y: by}, {X: xs[e], Y: ys[f]}, {X: bx, Y: ys[f]}, {X: bx, Y: by}}
		if phase == 0 {
			edgeID = model.ObjectID(1 + k*13%(int(nextID)-1))
		} else if s, ok := a.net.slotOf[edgeID]; ok && !pinned[edgeID] &&
			a.net.slots[s].cell == int32(cfg.Geometry.CellIndex(cfg.Geometry.CellOf(walk[phase-1]))) {
			hits.onEdge++
		}
		if !pinned[edgeID] {
			for _, w := range worlds {
				w.place(edgeID, walk[phase], true)
			}
		}
		in := cfg.Geometry.CellRect(cfg.Geometry.CellOf(walk[phase]))
		items = append(items, fanoutItem{
			geo.Circle{Center: in.Center(), R: in.Width() / 4},
			protocol.AnswerUpdate{Query: model.QueryID(tick*100 + 98)},
		})
		// Every tenth tick adds a many-query-sized region — well over a
		// hundred cells, most of the population — drawn from no generator,
		// so the rest of the script is what it was.
		if tick%10 == 0 {
			c := geo.Circle{Center: geo.Pt(500, 500), R: 400}
			items = append(items, fanoutItem{c, protocol.AnswerUpdate{Query: model.QueryID(tick*100 + 99)}})
			if len(cfg.Geometry.CellsIntersecting(c)) >= 100 {
				hits.wideRegion++
			}
		}
		for _, w := range worlds {
			for _, it := range items {
				w.net.ServerSide().Broadcast(it.region, it.msg)
			}
		}
		// A few downlinks keep the bucketed queue mixing directions.
		for j := script.Intn(2); j > 0; j-- {
			to := model.ObjectID(script.Intn(int(nextID)) + 1)
			for _, w := range worlds {
				w.net.ServerSide().Downlink(to, protocol.MonitorCancel{Query: 1})
			}
		}
		a.net.SetNow(tick)
		b.net.SetNow(tick)
		da, db := a.net.Flush(), b.net.Flush()
		if da != db {
			t.Fatalf("tick %d: delivered %d (indexed) vs %d (linear)", tick, da, db)
		}
		if pa, pb := a.net.PendingCount(), b.net.PendingCount(); pa != pb {
			t.Fatalf("tick %d: pending %d vs %d", tick, pa, pb)
		}
	}
	// Drain the in-flight tail.
	a.net.SetNow(60)
	b.net.SetNow(60)
	a.net.Flush()
	b.net.Flush()

	ca, cb := a.net.Counters(), b.net.Counters()
	for _, dir := range metrics.Directions() {
		if ca.Sent(dir) != cb.Sent(dir) || ca.Delivered(dir) != cb.Delivered(dir) || ca.Dropped(dir) != cb.Dropped(dir) {
			t.Errorf("dir %v: counters differ: sent %d/%d delivered %d/%d dropped %d/%d",
				dir, ca.Sent(dir), cb.Sent(dir), ca.Delivered(dir), cb.Delivered(dir), ca.Dropped(dir), cb.Dropped(dir))
		}
		if a.net.Duplicated(dir) != b.net.Duplicated(dir) {
			t.Errorf("dir %v: duplicated %d vs %d", dir, a.net.Duplicated(dir), b.net.Duplicated(dir))
		}
	}
	if len(a.recs) != len(b.recs) {
		t.Fatalf("%d recorders (indexed) vs %d (linear)", len(a.recs), len(b.recs))
	}
	for id, ra := range a.recs {
		if rb := b.recs[id]; !slices.Equal(ra.seen, rb.seen) {
			t.Fatalf("client %d: heard %v (indexed) vs %v (linear)", id, ra.seen, rb.seen)
		}
	}
	// Both generators of both networks must sit at the same stream
	// position: the next draw from each pair must agree.
	ba, fa := a.net.RNGBurn()
	bb, fb := b.net.RNGBurn()
	if ba != bb {
		t.Error("base loss RNG streams diverged")
	}
	if fa != fb {
		t.Error("fault RNG streams diverged")
	}
	return hits
}

// The tentpole equivalence invariant: the cell-indexed fan-out over the
// dense client table and the linear oracle must be indistinguishable under
// random positions, churn, down clients, loss, burst loss, jitter,
// duplication, and attach from inside a fan-out.
func TestIndexedFanoutMatchesLinear(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	var hits scriptHits
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			hits.add(runFanoutScript(t, Config{
				Geometry:      grid.NewGeometry(world, 16, 16),
				LatencyTicks:  1,
				BroadcastLoss: 0.2,
				DownlinkLoss:  0.1,
				Seed:          seed,
				Faults: FaultConfig{
					BroadcastGE:   BurstLoss(0.15, 3),
					JitterTicks:   2,
					DuplicateProb: 0.25,
				},
			}, seed*7919))
		})
	}
	hits.check(t, 8)
}

// allocWorld is the fixture of the allocation test: 500 clients on a
// 16×16 grid, each with a home position and an alternate one in another
// cell.
func allocWorld() (w *fanoutWorld, home, away []geo.Point) {
	w = newFanoutWorld(Config{
		Geometry:      grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 16, 16),
		BroadcastLoss: 0.1,
	}, false)
	rng := rand.New(rand.NewSource(42))
	home, away = make([]geo.Point, 501), make([]geo.Point, 501)
	for id := model.ObjectID(1); id <= 500; id++ {
		home[id] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		away[id] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		w.attach(id, home[id])
	}
	return w, home, away
}

// The broadcast delivery path must be allocation-free in steady state:
// index refresh, audience gathering, sorting, bucket push/drain, and the
// per-recipient loss draws all reuse held storage — with a population at
// rest, and with a tenth of it changing cell every flush once the cell
// lists have seen their peak populations.
func TestBroadcastDeliveryDoesNotAllocate(t *testing.T) {
	var msg protocol.Message = protocol.MonitorCancel{Query: 7}
	region := geo.Circle{Center: geo.Pt(500, 500), R: 150}
	for _, moving := range []bool{false, true} {
		moving := moving
		t.Run(fmt.Sprintf("moving=%v", moving), func(t *testing.T) {
			w, home, away := allocWorld()
			tick := model.Tick(0)
			cycle := func() {
				tick++
				if moving {
					// Every tenth client, a different tenth each cycle, hops
					// between its two positions: the pattern repeats after 20
					// cycles, so the warm-up sees every state it will revisit.
					for id := 1 + int(tick)%10; id <= 500; id += 10 {
						if w.pos[id] == home[id] {
							w.pos[id] = away[id]
						} else {
							w.pos[id] = home[id]
						}
					}
				}
				w.net.SetNow(tick)
				w.net.ServerSide().Broadcast(region, msg)
				w.net.ServerSide().Broadcast(region, msg)
				w.net.Flush()
			}
			// Warm up scratch and cell-list capacities, then demand zero
			// steady-state allocs.
			for i := 0; i < 40; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
				t.Errorf("broadcast+flush cycle allocates %.1f times per run, want 0", avg)
			}
		})
	}
	// The unicast path through the same queue: a round of uplinks, whose
	// handler replies by downlink from inside the round, and the second
	// round that delivers the replies. The 100 measured cycles span a trim
	// window, so steady traffic must also survive the queue's trimming.
	t.Run("unicast", func(t *testing.T) {
		w, _, _ := allocWorld()
		side := w.net.ServerSide()
		w.net.AttachServer(transport.ServerHandlerFunc(func(from model.ObjectID, _ protocol.Message) {
			side.Downlink(from, msg) // boxed up front: the reply itself allocates nothing
		}))
		ups := make([]transport.ClientSide, 50)
		for i := range ups {
			ups[i] = w.net.ClientSide(model.ObjectID(i + 1))
		}
		tick := model.Tick(0)
		cycle := func() {
			tick++
			w.net.SetNow(tick)
			for _, up := range ups {
				up.Uplink(msg)
			}
			if got := w.net.Flush(); got != 2*len(ups) {
				t.Fatalf("cycle delivered %d, want %d uplinks and as many replies", got, len(ups))
			}
		}
		for i := 0; i < 40; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("uplink+reply cycle allocates %.1f times per run, want 0", avg)
		}
	})
}

// The audience scratch follows the capacity rule every per-round buffer
// of the medium follows: one broadcast heard by the whole population grows
// it to the population, and two windows of small broadcasts later it is
// back to their size.
func TestAudienceScratchFollowsTraffic(t *testing.T) {
	const population, small = 1000, 10
	w := newFanoutWorld(testConfig(), false)
	rng := rand.New(rand.NewSource(3))
	// small clients in the corner cell (0,0), the rest east of x = 200.
	for id := model.ObjectID(1); id <= population; id++ {
		p := geo.Pt(200+rng.Float64()*800, rng.Float64()*1000)
		if id <= small {
			p = geo.Pt(50, 50)
		}
		w.attach(id, p)
	}
	var msg protocol.Message = protocol.MonitorCancel{Query: 1}
	tick := model.Tick(0)
	flushOf := func(region geo.Circle) {
		tick++
		w.net.SetNow(tick)
		w.net.ServerSide().Broadcast(region, msg)
		w.net.Flush()
	}
	flushOf(geo.Circle{Center: geo.Pt(500, 500), R: 800})
	if got := cap(w.net.recipients); got < population {
		t.Fatalf("audience scratch of %d after a broadcast to all %d clients", got, population)
	}
	corner := geo.Circle{Center: geo.Pt(50, 50), R: 10}
	for i := 0; i < 2*container.WindowRounds; i++ {
		flushOf(corner)
	}
	if got, bound := cap(w.net.recipients), container.Slack*small; got > bound {
		t.Errorf("%d flushes after the world-sized broadcast the audience scratch holds %d entries, want at most %d",
			2*container.WindowRounds, got, bound)
	}
	if got := w.net.Counters().Delivered(metrics.Broadcast); got != population+2*container.WindowRounds*small {
		t.Errorf("delivered %d receptions, want %d", got, population+2*container.WindowRounds*small)
	}
}

// BenchmarkBroadcastFanout measures a flush delivering a burst of
// fixed-radius region broadcasts, sent one by one on the indexed
// (production) path and against the linear oracle. The indexed path pays
// one position re-resolution per client per flush plus work proportional
// to the regions' populations; the oracle scans every client once per
// broadcast.
//
// The N= cases are small monitoring circles (R = 250 m, 9–16 cells of
// the 64 × 64 grid over 10 km) at rest. The manyq case is the many-query
// regime the repository's benchmark runs: 16 installs per flush at
// R = 1 000 m — 157 cells where the world's edge does not clip the circle,
// 134 and about 650 recipients on average — with a tenth of the population
// changing cell between flushes. A gather whose cost grows with
// recipients × cells shows here and nowhere above.
func BenchmarkBroadcastFanout(b *testing.B) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000))
	cases := []struct {
		name      string
		n         int
		r         float64
		perFlush  int
		movingPct int
	}{
		{"N=1000", 1000, 250, 8, 0},
		{"N=10000", 10000, 250, 8, 0},
		{"N=100000", 100000, 250, 8, 0},
		{"manyq/N=20000", 20000, 1000, 16, 10},
	}
	for _, c := range cases {
		for _, mode := range []string{"indexed", "linear"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				w := newFanoutWorld(Config{
					Geometry: grid.NewGeometry(world, 64, 64),
				}, mode == "linear")
				rng := rand.New(rand.NewSource(1))
				for id := model.ObjectID(1); id <= model.ObjectID(c.n); id++ {
					w.attach(id, geo.Pt(rng.Float64()*10000, rng.Float64()*10000))
				}
				// The oracle flips between two prepared position tables, so a
				// flush's worth of movement costs the benchmark nothing.
				tables := [2][]geo.Point{w.pos, slices.Clone(w.pos)}
				for id := 1; id <= c.n; id++ {
					if rng.Intn(100) < c.movingPct {
						tables[1][id] = geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
					}
				}
				var msg protocol.Message = protocol.MonitorCancel{Query: 1}
				regions := make([]geo.Circle, c.perFlush)
				for i := range regions {
					regions[i] = geo.Circle{Center: geo.Pt(rng.Float64()*10000, rng.Float64()*10000), R: c.r}
				}
				tick := model.Tick(0)
				flushBurst := func() {
					tick++
					w.pos = tables[tick&1]
					w.net.SetNow(tick)
					for _, region := range regions {
						w.net.ServerSide().Broadcast(region, msg)
					}
					w.net.Flush()
				}
				// Warm up so scratch growth is excluded from the steady state:
				// every bucket of the queue's ring has to have held a burst.
				for i := 0; i < 2*len(w.net.buckets); i++ {
					flushBurst()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					flushBurst()
				}
			})
		}
	}
}

// BenchmarkCellIndexRefresh measures the once-per-flush re-placement of
// the whole population on its own: with nobody moving, with a tenth of the
// clients teleported to uniform random points between consecutive
// refreshes, and with every client drifting the way the benchmark's
// populations move — 5 to 20 m per refresh (bench's speeds × Δt) on the
// 156 m cells of a 64 × 64 grid over 10 km, so most stay in their cell.
// The oracle flips between two prepared position tables, so a flush's
// worth of movement costs the benchmark nothing. It reports the share of
// clients a refresh finds still in their cell (stayed/client).
func BenchmarkCellIndexRefresh(b *testing.B) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000))
	geom := grid.NewGeometry(world, 64, 64)
	randPt := func(rng *rand.Rand) geo.Point { return geo.Pt(rng.Float64()*10000, rng.Float64()*10000) }
	for _, n := range []int{20000, 100000} {
		for _, mv := range []struct {
			name string
			move func(rng *rand.Rand, p geo.Point) geo.Point
		}{
			{"moving=0%", func(_ *rand.Rand, p geo.Point) geo.Point { return p }},
			{"moving=10%", func(rng *rand.Rand, p geo.Point) geo.Point {
				if rng.Intn(100) < 10 {
					return randPt(rng)
				}
				return p
			}},
			{"drift", func(rng *rand.Rand, p geo.Point) geo.Point {
				angle, step := rng.Float64()*2*math.Pi, 5+rng.Float64()*15
				return p.Add(geo.Vector{X: step * math.Cos(angle), Y: step * math.Sin(angle)})
			}},
		} {
			b.Run(fmt.Sprintf("N=%d/%s", n, mv.name), func(b *testing.B) {
				w := newFanoutWorld(Config{Geometry: geom}, false)
				rng := rand.New(rand.NewSource(1))
				for id := model.ObjectID(1); id <= model.ObjectID(n); id++ {
					w.attach(id, randPt(rng))
				}
				tables := [2][]geo.Point{w.pos, slices.Clone(w.pos)}
				stayed := 0
				for id := 1; id <= n; id++ {
					tables[1][id] = mv.move(rng, tables[0][id])
					if geom.CellOf(tables[0][id]) == geom.CellOf(tables[1][id]) {
						stayed++
					}
				}
				refresh := func(i int) {
					w.pos = tables[i&1]
					w.net.indexFresh = false
					w.net.refreshCellIndex()
				}
				// Warm up so cell-list growth is excluded from the steady state.
				for i := 0; i < 4; i++ {
					refresh(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					refresh(i)
				}
				b.ReportMetric(float64(stayed)/float64(n), "stayed/client")
			})
		}
	}
}
