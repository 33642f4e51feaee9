package core

import (
	"cmp"
	"math/bits"
	"slices"

	"dmknn/internal/container"
	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// line is a reported track: position pos at tick at, moving at vel. A
// report without a velocity (exit, probe reply) is a line at rest.
type line struct {
	pos geo.Point
	vel geo.Vector
	at  model.Tick
}

// posAt dead-reckons the line to now, dt seconds a tick. The object
// measures its drift against it, and both sides place a member with it.
func (l *line) posAt(now model.Tick, dt float64) geo.Point {
	return geo.DeadReckon(l.pos, l.vel, float64(now-l.at)*dt)
}

// trackInside reports whether track m lies inside the answer circle at
// tick t: within rb of the advertised query track adv there. It is the
// one rule that moves a member on its track across r_b. The object
// changes side by it without a report, and the server files the same
// crossing from the same two tracks, so it must come out alike on any two
// machines: both measure by geo.Point.Dist, the one distance, which ranks
// members and sizes r_b too.
func trackInside(m, adv *line, rb float64, t model.Tick, dt float64) bool {
	c := circleAt(adv, rb, t, dt)
	return c.holds(m)
}

// circle is an install's answer circle at one tick: where the advertised
// query track puts its centre then, and r_b. The server places it once
// per monitor and tests every member row against it.
type circle struct {
	center geo.Point
	rb     float64
	t      model.Tick
	dt     float64
}

// circleAt is the answer circle of radius rb around track adv at tick t.
func circleAt(adv *line, rb float64, t model.Tick, dt float64) circle {
	return circle{adv.posAt(t, dt), rb, t, dt}
}

// holds reports whether track m lies inside c at c's tick.
func (c *circle) holds(m *line) bool { return m.posAt(c.t, c.dt).Dist(c.center) <= c.rb }

// member is one row of a monitor's member table: what the server holds
// about one object with respect to one query. A row exists while either
// flag is set.
type member struct {
	id     model.ObjectID
	known  bool // a track is on record (the candidate set)
	inside bool // believed inside the answer circle
	line        // last reported track; meaningful while known
}

// annulus is a candidate outside the answer circle, filed where a
// member's report never searches. Exits and probe replies carry no
// velocity, so it holds a position only; a slot with known clear is dead.
type annulus struct {
	id    model.ObjectID
	known bool
	pos   geo.Point
}

// memberTable is a monitor's working state, in two tables ascending by
// id. rows holds every row inside the answer circle, and the outside rows
// written since the last prune (exits, mostly); cold holds the other
// candidates, the annulus. Beside rows sits a ranking of the known inside
// rows by model.CompareNeighbors at one (query centre, tick) pair, with
// each entry's track in rankPos. A report at an unchanged pair moves one
// entry of the ranking; a different pair (rankedAt) re-measures and
// re-sorts it in place, and only a bulk mutation (reset) rebuilds it.
// Every Dist in the ranking is posAt(now).Dist(center), so it is the list
// a rebuild-and-sort yields.
type memberTable struct {
	rows    []member
	cold    []annulus
	nKnown  int
	nInside int
	// cut is how many leading ranks form the answer: k, or maxK (the
	// most an answer's u16 count names) for a range monitor.
	cut int
	// dt is the tick length the tracks are dead-reckoned with.
	dt float64

	ranked  []model.Neighbor
	rankPos []line
	center  geo.Point
	now     model.Tick
	rankOK  bool
	// sent holds, ascending, the ids the last answer message named;
	// sentSpare is the buffer the next list is built in.
	sent, sentSpare []model.ObjectID
	// dirty means the ids ranked below cut may differ from sent; while
	// clear, a report needs no membership comparison.
	dirty bool
}

// find returns where id is, or would be, in rows.
func (t *memberTable) find(id model.ObjectID) (int, bool) {
	rows := t.rows
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(rows) && rows[lo].id == id
}

// findCold returns id's live annulus slot.
func (t *memberTable) findCold(id model.ObjectID) (int, bool) {
	i, ok := slices.BinarySearchFunc(t.cold, id, func(c annulus, id model.ObjectID) int { return cmp.Compare(c.id, id) })
	return i, ok && t.cold[i].known
}

// asMember is the annulus slot as a row: known, outside, at rest.
func (c *annulus) asMember() member { return member{id: c.id, known: true, line: line{pos: c.pos}} }

// lookup returns id's row from either table.
func (t *memberTable) lookup(id model.ObjectID) (member, bool) {
	if i, ok := t.find(id); ok {
		return t.rows[i], true
	}
	if i, ok := t.findCold(id); ok {
		return t.cold[i].asMember(), true
	}
	return member{}, false
}

// row returns id's row in rows, inserting an empty one if absent; id must
// have no live annulus slot (ImportMonitor fills rows before it files the
// annulus). The pointer is valid until the next insertion or removal.
func (t *memberTable) row(id model.ObjectID) *member {
	i, ok := t.find(id)
	if !ok {
		t.rows = slices.Insert(t.rows, i, member{id: id})
	}
	return &t.rows[i]
}

// dist measures l at the ranking's (centre, tick) pair.
func (t *memberTable) dist(l *line) float64 { return l.posAt(t.now, t.dt).Dist(t.center) }

// rankOf returns r's index in the ranking; r must be ranked. Its row's
// track and the (centre, tick) pair are the ones it was ranked under, so
// the Dist recomputed here is bit for bit the one in the ranking.
func (t *memberTable) rankOf(r *member) int {
	i, _ := slices.BinarySearchFunc(t.ranked, model.Neighbor{ID: r.id, Dist: t.dist(&r.line)}, model.CompareNeighbors)
	return i
}

// unrank takes r out of the ranking and reports whether it ranked below
// cut.
func (t *memberTable) unrank(r *member) bool {
	if !t.rankOK || !r.known || !r.inside {
		return false
	}
	i := t.rankOf(r)
	t.ranked = slices.Delete(t.ranked, i, i+1)
	t.rankPos = slices.Delete(t.rankPos, i, i+1)
	return i < t.cut
}

// rank puts r into the ranking and reports whether it ranks below cut.
func (t *memberTable) rank(r *member) bool {
	if !t.rankOK || !r.known || !r.inside {
		return false
	}
	n := model.Neighbor{ID: r.id, Dist: t.dist(&r.line)}
	i, _ := slices.BinarySearchFunc(t.ranked, n, model.CompareNeighbors)
	t.ranked = slices.Insert(t.ranked, i, n)
	t.rankPos = slices.Insert(t.rankPos, i, r.line)
	return i < t.cut
}

// move gives ranked row r a new track: one search finds its entry, which
// then shifts past its neighbours to its new rank.
func (t *memberTable) move(r *member, l line) {
	i := t.rankOf(r)
	r.line = l
	n := model.Neighbor{ID: r.id, Dist: t.dist(&l)}
	rk, rp := t.ranked, t.rankPos
	j := i
	for ; j > 0 && model.CompareNeighbors(n, rk[j-1]) < 0; j-- {
		rk[j], rp[j] = rk[j-1], rp[j-1]
	}
	for ; j+1 < len(rk) && model.CompareNeighbors(rk[j+1], n) < 0; j++ {
		rk[j], rp[j] = rk[j+1], rp[j+1]
	}
	rk[j], rp[j] = n, l
	if (i < t.cut) != (j < t.cut) {
		t.dirty = true
	}
}

// setFlags sets r's flags, keeping the flag counts.
func (t *memberTable) setFlags(r *member, known, inside bool) {
	t.nKnown += btoi(known) - btoi(r.known)
	t.nInside += btoi(inside) - btoi(r.inside)
	r.known, r.inside = known, inside
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// set records id's reported track and side of the answer circle; an
// annulus slot keeps only the position. A report older than the track on
// record changes nothing: reports may arrive out of order (a relay is a
// hop longer than the direct path), and an older one would replace the
// track the object measures itself against. The answer's id set changes
// exactly when id crosses rank cut.
func (t *memberTable) set(id model.ObjectID, l line, inside bool) {
	i, ok := t.find(id)
	if !ok {
		if c, live := t.findCold(id); live {
			if !inside {
				t.cold[c].pos = l.pos
				return
			}
			t.cold[c].known = false // entering: the slot dies
			t.nKnown--
		}
		t.rows = slices.Insert(t.rows, i, member{id: id})
	}
	r := &t.rows[i]
	if r.known && l.at < r.at {
		return
	}
	if t.rankOK && r.known && r.inside && inside {
		t.move(r, l)
		return
	}
	wasTop := t.unrank(r)
	t.setFlags(r, true, inside)
	r.line = l
	if t.rank(r) != wasTop {
		t.dirty = true
	}
}

// exitOffCircle files every known inside row whose track lies outside
// the answer circle of (adv, rb) at now, as the object decides the same
// crossing without a report, and reports how many it filed. A row leaves
// as a track reported outside leaves it: at rest at its track's point.
// It keeps its report tick, so a report the object sent before the
// crossing still applies when it lands late. The ranking holds exactly the known
// inside rows' tracks, in the arrays the re-rank reads next, so the pass
// walks it, from the back so that an exit's removal moves nothing still
// to be read. An installed monitor's table is always ranked: an install
// or an import ranks it before the server lock is released.
func (t *memberTable) exitOffCircle(adv *line, rb float64, now model.Tick) int {
	n := 0
	c := circleAt(adv, rb, now, t.dt) // trackInside, placed once
	for i := len(t.rankPos) - 1; i >= 0; i-- {
		if c.holds(&t.rankPos[i]) {
			continue
		}
		j, _ := t.find(t.ranked[i].ID)
		t.ranked = slices.Delete(t.ranked, i, i+1)
		t.rankPos = slices.Delete(t.rankPos, i, i+1)
		if i < t.cut {
			t.dirty = true
		}
		r := &t.rows[j]
		t.setFlags(r, true, false)
		r.line = line{pos: r.posAt(now, t.dt), at: r.at}
		n++
	}
	return n
}

// forget drops id's row. It reports whether there was one, and whether
// it was inside.
func (t *memberTable) forget(id model.ObjectID) (found, wasInside bool) {
	i, found := t.find(id)
	if !found {
		if c, live := t.findCold(id); live {
			t.cold[c].known = false
			t.nKnown--
			return true, false
		}
		return false, false
	}
	r := &t.rows[i]
	wasInside = r.inside
	if t.unrank(r) {
		t.dirty = true
	}
	t.setFlags(r, false, false)
	t.rows = slices.Delete(t.rows, i, i+1)
	return true, wasInside
}

// reset forgets every position and membership. The sent list survives:
// the next answer is still diffed against the last one.
func (t *memberTable) reset() {
	t.rows, t.cold = t.rows[:0], t.cold[:0]
	t.nKnown, t.nInside = 0, 0
	t.ranked, t.rankPos, t.rankOK = t.ranked[:0], t.rankPos[:0], false
}

// add appends a known row for an id the table does not hold, on track l
// inside the answer circle or at l.pos in the annulus. A run of adds
// after a reset ends with sortIDs.
func (t *memberTable) add(id model.ObjectID, l line, inside bool) {
	t.nKnown++
	if inside {
		t.nInside++
		t.rows = append(t.rows, member{id: id, known: true, inside: true, line: l})
	} else {
		t.cold = append(t.cold, annulus{id: id, known: true, pos: l.pos})
	}
}

// sortIDs restores id order to both tables after a run of adds, and
// gives back the capacity a probe storm left behind.
func (t *memberTable) sortIDs() {
	slices.SortFunc(t.rows, func(a, b member) int { return cmp.Compare(a.id, b.id) })
	slices.SortFunc(t.cold, func(a, b annulus) int { return cmp.Compare(a.id, b.id) })
	t.fit()
}

// prune forgets the known rows outside the answer circle whose position
// lies beyond radius of center, and files the rest of them in cold at
// their reported position: dead slots are dropped, and rows' outside rows
// are merged in.
func (t *memberTable) prune(center geo.Point, radius float64) {
	t.cold = slices.DeleteFunc(t.cold, func(r annulus) bool {
		if !r.known {
			return true
		}
		gone := r.pos.Dist(center) > radius
		t.nKnown -= btoi(gone)
		return gone
	})
	n := 0
	for i := range t.rows {
		if r := &t.rows[i]; !r.inside {
			if r.pos.Dist(center) > radius {
				t.setFlags(r, false, false)
			} else {
				n++
			}
		}
	}
	if n > 0 {
		// Merge from the back, so cold's rows move at most once.
		c := len(t.cold)
		t.cold = slices.Grow(t.cold, n)[:c+n]
		w := c + n
		for i := len(t.rows) - 1; i >= 0; i-- {
			r := t.rows[i]
			if !r.known || r.inside {
				continue
			}
			for ; c > 0 && t.cold[c-1].id > r.id; c-- {
				w--
				t.cold[w] = t.cold[c-1]
			}
			w--
			t.cold[w] = annulus{id: r.id, known: true, pos: r.pos}
		}
	}
	t.rows = slices.DeleteFunc(t.rows, func(r member) bool { return !r.inside })
	t.fit()
}

// The capacity floors of the two tables, below which fit never trims, so
// a small table never churns. Between two prunes the exits a rows table
// collects take it past 64 rows on many monitors of a dense population
// (steady-100k), so its floor is higher; the annulus of a sparse one
// (tcp-300) fills a fraction of even 64.
const (
	minRowCap  = 128
	minColdCap = 64
)

// fit gives back the capacity a probe storm left behind: a table holding
// more than container.Slack × its rows, and more than its floor, is
// copied to its size. It runs where the tables shrink in bulk, after a
// prune or an install's rebuild, never on the report path.
func (t *memberTable) fit() {
	t.rows = container.Trim(t.rows, minRowCap)
	t.cold = container.Trim(t.cold, minColdCap)
}

// rankedAt returns the known inside members ordered by (Dist, ID) from
// center, each at its track's position at now: the ranking as it stands
// when it was made for that pair, else re-sorted in place. The slice is
// the table's own: valid until the next mutation.
func (t *memberTable) rankedAt(center geo.Point, now model.Tick) []model.Neighbor {
	switch {
	case !t.rankOK:
		t.rankAll(center, now)
	case t.center != center || t.now != now:
		t.resort(center, now)
	}
	return t.ranked
}

// rankAll builds the ranking at (center, now) from rows.
func (t *memberTable) rankAll(center geo.Point, now model.Tick) {
	t.center, t.now = center, now
	t.ranked = t.ranked[:0]
	for i := range t.rows {
		if r := &t.rows[i]; r.known && r.inside {
			t.ranked = append(t.ranked, model.Neighbor{ID: r.id, Dist: t.dist(&r.line)})
		}
	}
	model.SortNeighbors(t.ranked)
	t.rankPos = t.rankPos[:0]
	for _, n := range t.ranked {
		i, _ := t.find(n.ID)
		t.rankPos = append(t.rankPos, t.rows[i].line)
	}
	t.rankOK, t.dirty = true, true
}

// resort re-measures the ranking at (center, now) and insertion-sorts it:
// the last pair's order is nearly this one's. The answer's id set changes
// exactly when an entry from rank cut or beyond lands above it, so only
// that raises dirty. A shuffle too deep for insertion falls back to
// rankAll.
func (t *memberTable) resort(center geo.Point, now model.Tick) {
	t.center, t.now = center, now
	rk, rp := t.ranked, t.rankPos
	for i := range rk {
		rk[i].Dist = t.dist(&rp[i])
	}
	budget := len(rk) * bits.Len(uint(len(rk)))
	for i := 1; i < len(rk); i++ {
		n, p := rk[i], rp[i]
		j := i
		for ; j > 0 && model.CompareNeighbors(n, rk[j-1]) < 0; j-- {
			rk[j], rp[j] = rk[j-1], rp[j-1]
		}
		rk[j], rp[j] = n, p
		if j < t.cut && i >= t.cut {
			t.dirty = true
		}
		if budget -= i - j; budget < 0 {
			t.rankAll(center, now)
			return
		}
	}
}

// appendKnown appends the known rows with their distance from center,
// each at its track's position at now: all of them, or only those outside
// the answer circle. The order is the tables', not the neighbor order.
func (t *memberTable) appendKnown(buf []model.Neighbor, center geo.Point, now model.Tick, all bool) []model.Neighbor {
	for i := range t.rows {
		if r := &t.rows[i]; r.known && (all || !r.inside) {
			buf = append(buf, model.Neighbor{ID: r.id, Dist: r.posAt(now, t.dt).Dist(center)})
		}
	}
	for i := range t.cold {
		if c := &t.cold[i]; c.known {
			buf = append(buf, model.Neighbor{ID: c.id, Dist: c.pos.Dist(center)})
		}
	}
	return buf
}

// each calls fn on every row of both tables, in ascending id order,
// skipping dead annulus slots.
func (t *memberTable) each(fn func(r member)) {
	cold := t.cold
	for i := range t.rows {
		r := &t.rows[i]
		for ; len(cold) > 0 && cold[0].id < r.id; cold = cold[1:] {
			if cold[0].known {
				fn(cold[0].asMember())
			}
		}
		fn(*r)
	}
	for i := range cold {
		if cold[i].known {
			fn(cold[i].asMember())
		}
	}
}

// commitSent makes the sent list name exactly acc's ids. It appends to
// added the neighbors newly named, in acc order, and to removed the ids
// no longer named, ascending.
func (t *memberTable) commitSent(acc, added []model.Neighbor, removed []model.ObjectID) ([]model.Neighbor, []model.ObjectID) {
	old, next := t.sent, t.sentSpare[:0]
	for _, n := range acc {
		next = append(next, n.ID)
		if _, ok := slices.BinarySearch(old, n.ID); !ok {
			added = append(added, n)
		}
	}
	slices.Sort(next)
	for _, id := range old {
		if _, ok := slices.BinarySearch(next, id); !ok {
			removed = append(removed, id)
		}
	}
	t.sent, t.sentSpare, t.dirty = next, old, false
	return added, removed
}
