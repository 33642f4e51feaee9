package core

import (
	"slices"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// member is one row of a monitor's member table: what the server holds
// about one object with respect to one query. A row exists while either
// flag is set.
type member struct {
	id     model.ObjectID
	known  bool      // a position is on record (the candidate set)
	inside bool      // believed inside the answer circle
	pos    geo.Point // last reported position; meaningful while known
	dist   float64   // the Dist stored in ranked, while the row is ranked
}

// memberTable is a monitor's working state: the rows in ascending id
// order, and a ranking of the known inside rows by model.CompareNeighbors
// against one query centre. A report at an unchanged centre moves one
// entry of the ranking; only a different centre (rankedAt) or a bulk
// mutation (reset) re-sorts it. Every Dist in the ranking comes from
// row.pos.Dist(center), so it is the list a rebuild-and-sort yields.
type memberTable struct {
	rows    []member
	nKnown  int
	nInside int
	// cut is how many leading ranks form the answer: k, or every rank
	// for a range monitor.
	cut int

	ranked []model.Neighbor
	center geo.Point
	rankOK bool
	// sent holds, ascending, the ids the last answer message named;
	// sentSpare is the buffer the next list is built in.
	sent, sentSpare []model.ObjectID
	// dirty means the ids ranked below cut may differ from sent; while
	// clear, a report needs no membership comparison.
	dirty bool
}

func (t *memberTable) find(id model.ObjectID) (int, bool) {
	lo, hi := 0, len(t.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.rows[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.rows) && t.rows[lo].id == id
}

// row returns id's row, inserting an empty one if absent. The pointer is
// valid until the next insertion or removal.
func (t *memberTable) row(id model.ObjectID) *member {
	i, ok := t.find(id)
	if !ok {
		t.rows = slices.Insert(t.rows, i, member{id: id})
	}
	return &t.rows[i]
}

// unrank takes r out of the ranking and reports whether it ranked below
// cut.
func (t *memberTable) unrank(r *member) bool {
	if !t.rankOK || !r.known || !r.inside {
		return false
	}
	i, _ := slices.BinarySearchFunc(t.ranked, model.Neighbor{ID: r.id, Dist: r.dist}, model.CompareNeighbors)
	t.ranked = slices.Delete(t.ranked, i, i+1)
	return i < t.cut
}

// rank puts r into the ranking and reports whether it ranks below cut.
func (t *memberTable) rank(r *member) bool {
	if !t.rankOK || !r.known || !r.inside {
		return false
	}
	r.dist = r.pos.Dist(t.center)
	n := model.Neighbor{ID: r.id, Dist: r.dist}
	i, _ := slices.BinarySearchFunc(t.ranked, n, model.CompareNeighbors)
	t.ranked = slices.Insert(t.ranked, i, n)
	return i < t.cut
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

// set records id's reported position and side of the answer circle. The
// answer's id set changes exactly when id crosses rank cut.
func (t *memberTable) set(id model.ObjectID, pos geo.Point, inside bool) {
	r := t.row(id)
	wasTop := t.unrank(r)
	t.setFlags(r, true, inside)
	r.pos = pos
	if t.rank(r) != wasTop {
		t.dirty = true
	}
}

// forget drops id's row. It reports whether there was one, and whether
// it was inside.
func (t *memberTable) forget(id model.ObjectID) (found, wasInside bool) {
	i, found := t.find(id)
	if !found {
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
	t.rows = t.rows[:0]
	t.nKnown, t.nInside = 0, 0
	t.ranked, t.rankOK = t.ranked[:0], false
}

// prune forgets the known rows outside the answer circle whose position
// lies beyond radius of center.
func (t *memberTable) prune(center geo.Point, radius float64) {
	t.rows = slices.DeleteFunc(t.rows, func(r member) bool {
		gone := r.known && !r.inside && r.pos.Dist(center) > radius
		if gone {
			t.nKnown--
		}
		return gone
	})
}

// rankedAt returns the known inside members ordered by (Dist, ID) from
// center, re-sorting only when the ranking was built for another centre.
// The slice is the table's own: valid until the next mutation.
func (t *memberTable) rankedAt(center geo.Point) []model.Neighbor {
	if t.rankOK && t.center == center {
		return t.ranked
	}
	t.ranked = t.ranked[:0]
	for i := range t.rows {
		if r := &t.rows[i]; r.known && r.inside {
			r.dist = r.pos.Dist(center)
			t.ranked = append(t.ranked, model.Neighbor{ID: r.id, Dist: r.dist})
		}
	}
	model.SortNeighbors(t.ranked)
	t.center, t.rankOK, t.dirty = center, true, true
	return t.ranked
}

// appendKnown appends the known rows with their distance from center:
// all of them, or only those outside the answer circle.
func (t *memberTable) appendKnown(buf []model.Neighbor, center geo.Point, all bool) []model.Neighbor {
	for i := range t.rows {
		if r := &t.rows[i]; r.known && (all || !r.inside) {
			buf = append(buf, model.Neighbor{ID: r.id, Dist: r.pos.Dist(center)})
		}
	}
	return buf
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
