package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// logSide records every send in order, broadcasts and downlinks
// interleaved as the server issued them.
type logSide struct{ log []loggedSend }

type loggedSend struct {
	bcast  bool
	region geo.Circle
	to     model.ObjectID
	msg    protocol.Message
}

func (l *logSide) Broadcast(region geo.Circle, m protocol.Message) {
	l.log = append(l.log, loggedSend{bcast: true, region: region, msg: m})
}

func (l *logSide) Downlink(to model.ObjectID, m protocol.Message) {
	l.log = append(l.log, loggedSend{to: to, msg: m})
}

// diffRig drives the production server and the rebuild-and-sort oracle
// with one message stream and compares them after every message.
type diffRig struct {
	t     *testing.T
	rng   *rand.Rand
	now   model.Tick
	srv   *Server
	ora   *oracleServer
	sSide *logSide
	oSide *logSide
	pos   map[model.ObjectID]geo.Point // true object positions, on a lattice
	ids   []model.ObjectID
	step  int
	last  string
	// lossless makes every probe reply arrive.
	lossless bool
}

const (
	diffObjects = 48
	diffQueries = 4 // queries 1..3 are kNN (k = 2, 4, 6), query 4 is a range query
	diffFocal   = 500
)

func newDiffRig(t *testing.T, seed int64, horizon int, delta bool) *diffRig {
	r := newServerPair(t, seed, Config{
		HorizonTicks: horizon, MinProbeRadius: 6, AnswerSlack: 2, ResyncTicks: 17,
		DeltaAnswers: delta,
	})
	// Integer lattice positions around (100,100): distance ties are the
	// rule, not the exception — (3,4), (5,0), (4,3), (0,5) all lie at 5.
	for i := 1; i <= diffObjects; i++ {
		id := model.ObjectID(i)
		r.ids = append(r.ids, id)
		r.pos[id] = geo.Pt(float64(88+r.rng.Intn(25)), float64(88+r.rng.Intn(25)))
	}
	for q := model.QueryID(1); q <= diffQueries; q++ {
		r.register(q)
	}
	return r
}

// newServerPair returns a rig of the production server and the oracle on
// a 200 m world, with no object and no query.
func newServerPair(t *testing.T, seed int64, cfg Config) *diffRig {
	r := &diffRig{t: t, rng: rand.New(rand.NewSource(seed)), now: 1,
		sSide: &logSide{}, oSide: &logSide{}, pos: make(map[model.ObjectID]geo.Point)}
	cfg = cfg.WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(200, 200)))
	deps := ServerDeps{Now: func() model.Tick { return r.now }, DT: 1, MaxObjectSpeed: 1, MaxQuerySpeed: 1}
	sd, od := deps, deps
	sd.Side, od.Side = r.sSide, r.oSide
	srv, err := NewServer(cfg, sd)
	if err != nil {
		t.Fatal(err)
	}
	r.srv, r.ora = srv, newOracleServer(cfg, od)
	return r
}

func (r *diffRig) register(q model.QueryID) {
	reg := protocol.QueryRegister{Query: q, K: uint32(2 * q), At: r.now,
		Pos: geo.Pt(float64(97+r.rng.Intn(7)), float64(97+r.rng.Intn(7))),
		Vel: geo.Vector{X: float64(r.rng.Intn(3) - 1), Y: float64(r.rng.Intn(3)-1) / 2}}
	if q == diffQueries {
		reg.K, reg.Range = 0, 7
	}
	r.uplink(diffFocal+model.ObjectID(q), reg)
}

// uplink applies one message to both servers and compares them.
func (r *diffRig) uplink(from model.ObjectID, msg protocol.Message) {
	r.last = fmt.Sprintf("uplink from %d: %+v", from, msg)
	r.srv.HandleUplink(from, msg)
	r.ora.handleUplink(from, msg, r.now)
	r.compare()
}

func (r *diffRig) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("step %d, tick %d, after %s:\n%s", r.step, r.now, r.last, fmt.Sprintf(format, args...))
}

// compare asserts the two servers sent the same messages since the last
// call and hold the same per-monitor state.
func (r *diffRig) compare() {
	r.t.Helper()
	r.step++
	if !reflect.DeepEqual(r.sSide.log, r.oSide.log) {
		r.fail("sends differ:\n table  %+v\n oracle %+v", r.sSide.log, r.oSide.log)
	}
	r.sSide.log, r.oSide.log = r.sSide.log[:0], r.oSide.log[:0]
	if !slices.Equal(r.srv.order, r.ora.order) {
		r.fail("query order %v, oracle %v", r.srv.order, r.ora.order)
	}
	for _, q := range r.srv.order {
		mon, om := r.srv.monitors[q], r.ora.monitors[q]
		if !slices.Equal(mon.answer, om.answer) {
			r.fail("q%d answer %v, oracle %v", q, mon.answer, om.answer)
		}
		if want := oracleSortedIDs(om.sent); !slices.Equal(mon.tab.sent, want) {
			r.fail("q%d sent %v, oracle %v", q, mon.tab.sent, want)
		}
		got := [...]any{mon.epoch, mon.installed, mon.probing, mon.probeSeq, mon.needsReinstall,
			mon.rebaseline, mon.answerPending, mon.answerSeq, mon.answerRadius, mon.radius, mon.tab.nInside, mon.tab.nKnown}
		want := [...]any{om.epoch, om.installed, om.probing, om.probeSeq, om.needsReinstall,
			om.rebaseline, om.pending, om.answerSeq, om.answerRadius, om.radius, len(om.inside), len(om.cands)}
		if got != want {
			r.fail("q%d state (epoch installed probing probeSeq needsReinstall rebaseline pending answerSeq rk radius inside known)\n table  %v\n oracle %v", q, got, want)
		}
		r.checkTable(q, mon, om)
	}
}

// checkTable asserts the member table's two tables are the oracle's maps
// — rows holding every inside row and each unfiled candidate's track,
// cold the filed candidates' positions, no id live in both — and that a
// ranking still marked valid is what a rebuild at its (centre, tick)
// pair would produce.
func (r *diffRig) checkTable(q model.QueryID, mon *monitor, om *oracleMonitor) {
	r.t.Helper()
	t := &mon.tab
	var ranked []model.Neighbor
	nKnown, nInside := 0, 0
	for i, row := range t.rows {
		if i > 0 && t.rows[i-1].id >= row.id {
			r.fail("q%d rows out of order at %d", q, i)
		}
		if !row.known && !row.inside {
			r.fail("q%d row %d carries no flag", q, row.id)
		}
		c, ok := om.cands[row.id]
		if ok != row.known || (ok && (c.filed || c.pos != row.pos || c.vel != row.vel || c.at != row.at)) {
			r.fail("q%d row %d known=%v track %+v, oracle %v %+v", q, row.id, row.known, row.line, ok, c)
		}
		if om.inside[row.id] != row.inside {
			r.fail("q%d row %d inside=%v, oracle %v", q, row.id, row.inside, om.inside[row.id])
		}
		nKnown += btoi(row.known)
		nInside += btoi(row.inside)
		if row.known && row.inside {
			p := geo.DeadReckon(row.pos, row.vel, float64(t.now-row.at)*t.dt)
			ranked = append(ranked, model.Neighbor{ID: row.id, Dist: p.Dist(t.center)})
		}
	}
	for i, row := range t.cold {
		if i > 0 && t.cold[i-1].id >= row.id {
			r.fail("q%d annulus out of order at %d", q, i)
		}
		if !row.known {
			continue // a dead slot
		}
		if _, dup := t.find(row.id); dup {
			r.fail("q%d row %d is live in both tables", q, row.id)
		}
		if c, ok := om.cands[row.id]; !ok || !c.filed || c.pos != row.pos || om.inside[row.id] {
			r.fail("q%d annulus row %d at %v, oracle %v %+v inside=%v", q, row.id, row.pos, ok, c, om.inside[row.id])
		}
		nKnown++
	}
	if nKnown != len(om.cands) || nInside != len(om.inside) {
		r.fail("q%d tables hold %d known, %d inside; oracle %d, %d", q, nKnown, nInside, len(om.cands), len(om.inside))
	}
	if t.rankOK {
		model.SortNeighbors(ranked)
		if !slices.Equal(t.ranked, ranked) {
			r.fail("q%d ranking %v, rebuild %v", q, t.ranked, ranked)
		}
		for i, n := range t.ranked {
			if c := om.cands[n.ID]; t.rankPos[i] != (line{c.pos, c.vel, c.at}) {
				r.fail("q%d rank %d track %+v, oracle %+v", q, i, t.rankPos[i], c)
			}
		}
	}
}

// report sends one member report for a random (object, query): mostly the
// kind the object's true position calls for, sometimes any kind, with an
// epoch that may lag (grace window and beyond) or lead the live one, and
// sometimes stamped a few ticks late, as a relayed report arrives after a
// direct one. Enter and move reports carry a lattice velocity.
func (r *diffRig) report() {
	id := r.ids[r.rng.Intn(len(r.ids))]
	q := model.QueryID(1 + r.rng.Intn(diffQueries))
	mon := r.srv.monitors[q]
	if mon == nil {
		return
	}
	p := r.pos[id]
	d := p.Dist(mon.qEst(r.now, 1))
	kind := 0 // enter, move, exit, leave
	switch {
	case d <= mon.answerRadius:
		kind = r.rng.Intn(2)
	case d <= mon.radius:
		kind = 2
	default:
		kind = 3
	}
	if r.rng.Intn(6) == 0 {
		kind = r.rng.Intn(4)
	}
	epoch := mon.epoch
	if r.rng.Intn(5) == 0 {
		epoch = mon.epoch + 1 - uint32(r.rng.Intn(5))
	}
	at := r.now
	if r.rng.Intn(4) == 0 {
		at -= model.Tick(1 + r.rng.Intn(3))
	}
	mr := protocol.MemberReport{Query: q, Epoch: epoch, Object: id, Pos: p, At: at}
	vel := geo.Vector{X: float64(r.rng.Intn(3) - 1), Y: float64(r.rng.Intn(3) - 1)}
	switch kind {
	case 0:
		r.uplink(id, protocol.EnterReport{MemberReport: mr, Vel: vel})
	case 1:
		r.uplink(id, protocol.MoveReport{MemberReport: mr, Vel: vel})
	case 2:
		r.uplink(id, protocol.ExitReport{MemberReport: mr})
	default:
		r.uplink(id, protocol.LeaveReport{MemberReport: mr})
	}
}

// answerProbes replies to the probe requests among sends, from the
// objects truly inside each probed region (a tenth of the replies lost,
// unless the rig is lossless).
func (r *diffRig) answerProbes(sends []loggedSend) {
	for _, s := range sends {
		probe, ok := s.msg.(protocol.ProbeRequest)
		if !ok {
			continue
		}
		for _, id := range r.ids {
			if p := r.pos[id]; probe.Region.Contains(p) && (r.lossless || r.rng.Intn(10) > 0) {
				r.uplink(id, protocol.ProbeReply{Query: probe.Query, Seq: probe.Seq, Object: id, Pos: p, At: r.now})
			}
		}
	}
}

// tick moves some objects, advances the clock and runs the server tick
// and its finalize rounds on both servers.
func (r *diffRig) tick() {
	for _, id := range r.ids {
		if r.rng.Intn(3) == 0 {
			p := r.pos[id]
			r.pos[id] = geo.Pt(p.X+float64(r.rng.Intn(3)-1), p.Y+float64(r.rng.Intn(3)-1))
		}
	}
	r.settle()
}

// settle advances the clock and runs the server tick and its finalize
// rounds on both servers.
func (r *diffRig) settle() {
	r.now++
	r.last = "Tick"
	r.srv.Tick(r.now)
	r.ora.tick(r.now)
	sends := slices.Clone(r.sSide.log)
	r.compare()
	for round := 0; round < 16; round++ {
		r.answerProbes(sends)
		r.last = fmt.Sprintf("Finalize round %d", round)
		got, want := r.srv.Finalize(r.now), r.ora.finalize(r.now)
		if got != want {
			r.fail("Finalize returned %v, oracle %v", got, want)
		}
		sends = slices.Clone(r.sSide.log)
		r.compare()
		if !got {
			return
		}
	}
}

// migrate exports q from both servers, checks the snapshots agree, and
// imports them back — directly or through the wire form.
func (r *diffRig) migrate(q model.QueryID) {
	r.last = fmt.Sprintf("export q%d", q)
	st, ok := r.srv.ExportMonitor(q)
	om := r.ora.monitors[q]
	if wantOK := om != nil && !om.probing; ok != wantOK {
		r.fail("ExportMonitor ok=%v, oracle %v", ok, wantOK)
	}
	if !ok {
		return
	}
	if want := r.ora.exportLocked(q, om, r.now); !reflect.DeepEqual(st, want) {
		r.fail("snapshot\n table  %+v\n oracle %+v", st, want)
	}
	r.compare()
	if r.rng.Intn(2) == 0 {
		m, err := protocol.Decode(protocol.Encode(nil, st))
		if err != nil {
			r.fail("handoff decode: %v", err)
		}
		st = m.(protocol.QueryHandoff)
	}
	r.last = fmt.Sprintf("import q%d", q)
	r.srv.ImportMonitor(st, r.now)
	r.ora.importMonitor(st, r.now)
	r.compare()
}

func (r *diffRig) run(steps int) {
	for i := 0; i < steps; i++ {
		q := model.QueryID(1 + r.rng.Intn(diffQueries))
		switch x := r.rng.Intn(100); {
		case x < 70:
			r.report()
		case x < 84:
			r.tick()
		case x < 89:
			r.uplink(diffFocal+model.ObjectID(q), protocol.QueryMove{Query: q, At: r.now,
				Pos: geo.Pt(float64(96+r.rng.Intn(9)), float64(96+r.rng.Intn(9))),
				Vel: geo.Vector{X: float64(r.rng.Intn(3) - 1), Y: float64(r.rng.Intn(3) - 1)}})
		case x < 92:
			id := r.ids[r.rng.Intn(len(r.ids))]
			r.last = fmt.Sprintf("client %d gone", id)
			r.srv.HandleClientGone(id)
			r.ora.clientGone(id, r.now)
			r.compare()
		case x < 94:
			r.uplink(diffFocal+model.ObjectID(q), protocol.AnswerResync{Query: q, At: r.now})
		case x < 96:
			r.register(q) // a duplicate re-baselines, a vanished query returns
		case x < 97:
			r.last = fmt.Sprintf("focal client of q%d gone", q)
			r.srv.HandleClientGone(diffFocal + model.ObjectID(q))
			r.ora.clientGone(diffFocal+model.ObjectID(q), r.now)
			r.compare()
		default:
			r.migrate(q)
		}
	}
}

// The member table is an optimisation of the evaluation, not a change to
// it: on seeded random streams of every message kind the server takes —
// with distance ties, repeated ids, lagging and leading epochs, a range
// monitor, lost probe replies, disconnects, re-registrations and
// export→import round trips — every send, answer, sent set and
// reinstall flag equals what the retained rebuild-and-sort server gives,
// after every single message — at a fixed horizon, and at the derived
// per-monitor one (HorizonTicks 0, the "derived-horizon" subtests). The
// subtest names keep the "influence=false" segment of the retired
// influence on/off loop, so every case keeps the name it has always had.
func TestRankedTableMatchesRebuild(t *testing.T) {
	for _, horizon := range []int{5, 0} {
		prefix := ""
		if horizon == 0 {
			prefix = "derived-horizon/"
		}
		for _, delta := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("%sinfluence=false/delta=%v/seed=%d", prefix, delta, seed), func(t *testing.T) {
					r := newDiffRig(t, seed, horizon, delta)
					r.run(2500)
					if r.now < 200 {
						t.Fatalf("stream advanced only %d ticks", r.now)
					}
				})
			}
		}
	}
}

// A new query centre re-sorts the ranking in place and raises dirty only
// when an entry crosses rank k. On an integer lattice with a tie at rank
// k, a centre step that only reorders the ranks on either side of k sends
// no answer, and the next step, which lifts an entry over rank k, sends
// exactly the answer message the rebuild-and-sort oracle sends.
func TestResortAnswersOnlyOnCrossing(t *testing.T) {
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			r := newServerPair(t, 1, Config{HorizonTicks: 50, MinProbeRadius: 6, AnswerSlack: 2, DeltaAnswers: delta})
			r.lossless = true
			// Distances from the centres (100,100), (101,100), (102,100):
			//   1 (100,100)  0      1      2
			//   2 (101,101)  √2     1      √2
			//   3 (102,101)  √5     √2     1
			//   4 ( 99,101)  √2     √5     √10
			//   5, 6         3      ≥ 3    ≥ 3   (annulus)
			// At the first centre 2 and 4 tie at rank k = 2 and 2 wins by id.
			for id, p := range []geo.Point{{X: 100, Y: 100}, {X: 101, Y: 101}, {X: 102, Y: 101},
				{X: 99, Y: 101}, {X: 97, Y: 100}, {X: 100, Y: 103}} {
				r.ids = append(r.ids, model.ObjectID(id+1))
				r.pos[model.ObjectID(id+1)] = p
			}
			// The query moves 1 m/tick east and is installed at (100,100)
			// on tick 2.
			r.uplink(diffFocal, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(99, 100), Vel: geo.Vector{X: 1}, At: 1})
			r.settle()
			mon := r.srv.monitors[1]
			if !mon.installed || len(mon.tab.cold) != 2 {
				t.Fatalf("installed=%v annulus %v, want installed with objects 5 and 6 in the annulus", mon.installed, mon.tab.cold)
			}
			for _, step := range []struct {
				answers int
				top     []model.ObjectID
			}{
				{0, []model.ObjectID{1, 2}}, // 3 passes 4 below rank k
				{1, []model.ObjectID{3, 2}}, // 3 passes 1 over rank k
			} {
				r.now++
				r.last = fmt.Sprintf("member 1's report at tick %d", r.now)
				msg := protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: 1, Epoch: mon.epoch, Object: 1, Pos: r.pos[1], At: r.now}}
				r.srv.HandleUplink(1, msg)
				r.ora.handleUplink(1, msg, r.now)
				r.srv.Finalize(r.now)
				r.ora.finalize(r.now)
				answers := 0
				for _, s := range r.sSide.log {
					switch s.msg.(type) {
					case protocol.AnswerUpdate, protocol.AnswerDelta:
						answers++
					}
				}
				if answers != step.answers || len(r.sSide.log) != step.answers {
					r.fail("sent %+v, want %d answer message(s) and nothing else", r.sSide.log, step.answers)
				}
				r.compare()
				var top []model.ObjectID
				for _, n := range mon.answer {
					top = append(top, n.ID)
				}
				if !slices.Equal(top, step.top) {
					r.fail("answer %v, want %v", mon.answer, step.top)
				}
			}
		})
	}
}
