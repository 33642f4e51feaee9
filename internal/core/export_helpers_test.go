package core

import (
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// The federation-facing read helpers: the track estimate a cluster uses
// to decide when a monitor should migrate, and the involvement index it
// transfers on object handoff.
func TestFederationReadHelpers(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)

	if _, ok := srv.QueryEstimate(99, 1); ok {
		t.Error("estimate for an unknown query")
	}
	est, ok := srv.QueryEstimate(1, 1)
	if !ok || est.Dist(geo.Pt(500, 500)) > 1e-9 {
		t.Fatalf("estimate = %v ok=%v, want the registered position", est, ok)
	}

	// A track advertised with velocity dead-reckons forward.
	srv.HandleUplink(500, protocol.QueryMove{
		Query: 1, Pos: geo.Pt(500, 500), Vel: geo.Vector{X: 10}, At: 1,
	})
	if est, _ := srv.QueryEstimate(1, 3); est.Dist(geo.Pt(520, 500)) > 1e-9 {
		t.Fatalf("dead-reckoned estimate = %v, want (520,500)", est)
	}

	// Objects 1..3 participated in the install; a stranger did not.
	if qs := srv.QueriesInvolving(1); len(qs) != 1 || qs[0] != 1 {
		t.Fatalf("QueriesInvolving(member) = %v", qs)
	}
	if qs := srv.QueriesInvolving(999); qs != nil {
		t.Fatalf("QueriesInvolving(stranger) = %v", qs)
	}
}

// ExportMonitorsWhere is the column-migration bulk path: it must honor
// the predicate, skip probing monitors exactly like ExportMonitor, and
// remove what it exports.
func TestExportMonitorsWhere(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	// A second query mid-probe: registered but never installed.
	srv.HandleUplink(501, protocol.QueryRegister{Query: 2, K: 2, Pos: geo.Pt(100, 100), At: 1})
	srv.Tick(1)

	stay := srv.ExportMonitorsWhere(1, func(q model.QueryID, est geo.Point) bool {
		return est.X > 900 // nothing lives there
	})
	if len(stay) != 0 || !srv.HasQuery(1) {
		t.Fatalf("predicate-false export moved %d monitors", len(stay))
	}

	moved := srv.ExportMonitorsWhere(1, func(model.QueryID, geo.Point) bool { return true })
	if len(moved) != 1 {
		t.Fatalf("exported %d monitors, want 1 (probing q2 skipped)", len(moved))
	}
	if moved[0].State.Query != 1 || moved[0].Est.Dist(geo.Pt(500, 500)) > 1e-9 {
		t.Fatalf("exported %+v", moved[0])
	}
	if srv.HasQuery(1) {
		t.Error("exported monitor still registered")
	}
	if !srv.HasQuery(2) {
		t.Error("probing monitor was exported")
	}
}

// held is the test view of the agent's monitor table, ascending by query.
func (a *ObjectAgent) held() []agentMonitor { return a.mons }

// memberOf is the test view of q's member row; the agent must be inside q.
func (a *ObjectAgent) memberOf(q model.QueryID) memberState {
	i, _ := a.find(q)
	return *a.members.row(a.memberIndex(i))
}

// rows is the test view of the member table, nil when the agent has none.
func (t *reportTable) rows() []memberState {
	if t == nil {
		return nil
	}
	return append([]memberState{t.first}, t.more...)
}

// stored is the test view of one member-table row: the position on record
// for id (if any) and whether the server believes it inside.
func (mon *monitor) stored(id model.ObjectID) (pos geo.Point, known, inside bool) {
	r, _ := mon.tab.lookup(id)
	return r.pos, r.known, r.inside
}
