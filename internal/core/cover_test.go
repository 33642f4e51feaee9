package core

import (
	"fmt"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
	"dmknn/internal/workload"
)

// The install and cancel covers are sized from the advertised frame: the
// last install's circle carried along the track it advertised, which is
// where every aware object measures its region.

// lastRegion returns the region and message of the last broadcast of
// type M.
func lastRegion[M protocol.Message](t *testing.T, side *recSide) (geo.Circle, M) {
	t.Helper()
	for i := len(side.broadcasts) - 1; i >= 0; i-- {
		if m, ok := side.broadcasts[i].msg.(M); ok {
			return side.broadcasts[i].region, m
		}
	}
	var zero M
	t.Fatalf("no %T broadcast", zero)
	return geo.Circle{}, zero
}

// containsCircle reports whether outer encloses inner, to rounding.
func containsCircle(outer, inner geo.Circle) bool {
	return outer.Center.Dist(inner.Center)+inner.R <= outer.R+1e-9
}

// A QueryMove that turns the query between two installs leaves the aware
// objects on the old track: the next install's cover must contain the
// frame they hold, on the refresh path and on the probe path. The query
// is reported back at the previous install centre, so a cover sized from
// that centre reaches only the objects around it.
func TestInstallCoverContainsFrameAfterQueryMove(t *testing.T) {
	for _, probe := range []bool{false, true} {
		t.Run(fmt.Sprintf("probe=%v", probe), func(t *testing.T) {
			srv, side, now := unitServer(t, baseCfg())
			*now = 1
			installQuery(t, srv, side, 1)
			// Advertise a moving track: the refresh at tick 2 carries it.
			*now = 2
			srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 500), Vel: geo.Vec(10, 0), At: 2})
			srv.Tick(2)
			_, before := lastRegion[protocol.MonitorInstall](t, side)
			if before.QueryVel != geo.Vec(10, 0) {
				t.Fatalf("refresh advertised %v", before.QueryVel)
			}

			// Four ticks on, the objects hold the circle 40 m along +x; the
			// focal client reports it turned back and stands at the centre.
			*now = 6
			srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 500), At: 6})
			if probe {
				// Both answer members leave, so the reinstall must probe.
				for _, id := range []model.ObjectID{1, 2} {
					srv.HandleUplink(id, protocol.MoveReport{MemberReport: protocol.MemberReport{
						Query: 1, Epoch: before.Epoch, Object: id, Pos: geo.Pt(900, 900), At: 6}})
				}
				srv.Tick(6)
				for i := 0; i < 6; i++ {
					pr, ok := side.lastBroadcast().(protocol.ProbeRequest)
					if !ok {
						break
					}
					for id, p := range map[model.ObjectID]geo.Point{1: geo.Pt(510, 500), 2: geo.Pt(530, 500)} {
						srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: pr.Seq, Object: id, Pos: p})
					}
					srv.Finalize(6)
				}
			} else {
				srv.Tick(6)
			}
			cover, after := lastRegion[protocol.MonitorInstall](t, side)
			if after.Epoch != before.Epoch+1 || after.At != 6 || after.Refresh == probe {
				t.Fatalf("last install %+v is not the tick-6 reinstall", after)
			}
			held := heldRegion(before, 6, 1)
			if !containsCircle(cover, held) {
				t.Fatalf("cover %v misses the frame %v the aware objects hold", cover, held)
			}
			if !containsCircle(cover, geo.Circle{Center: after.QueryPos, R: after.Radius}) {
				t.Fatalf("cover %v misses the new region", cover)
			}
		})
	}
}

// Without a QueryMove the server's estimate stays on the advertised line,
// so the frame is concentric with the new region and the cover is the
// larger of the two circles: no slack for the distance travelled since
// the install.
func TestInstallCoverConcentricWithoutQueryMove(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	*now = 2
	srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 500), Vel: geo.Vec(10, 0), At: 2})
	srv.Tick(2)
	_, before := lastRegion[protocol.MonitorInstall](t, side)
	for tick := model.Tick(3); tick <= 12; tick++ {
		*now = tick
		srv.Tick(tick) // the horizon (10) expires at tick 12
	}
	cover, after := lastRegion[protocol.MonitorInstall](t, side)
	if after.At != 12 {
		t.Fatalf("no horizon reinstall: last install at %d", after.At)
	}
	if want := max(after.Radius, before.Radius); cover.R > want+1e-9 || cover.Center != after.QueryPos {
		t.Fatalf("cover %v, want circle(%v, %v): the query travelled %v m along the advertised line",
			cover, after.QueryPos, want, after.QueryPos.Dist(before.QueryPos))
	}
}

// A query handoff between a QueryMove and the next reinstall carries the
// advertised track: the importer's first install is covered exactly as
// the exporter's would have been. The snapshot does not carry the pending
// reinstall, so both servers reinstall on the focal client's next report.
func TestHandoffCarriesAdvertisedFrame(t *testing.T) {
	reinstall := func(srv *Server) {
		srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 505), Vel: geo.Vec(0, -5), At: 7})
		srv.Tick(7)
	}
	script := func() (*Server, *recSide, *model.Tick) {
		srv, side, now := unitServer(t, baseCfg())
		*now = 1
		installQuery(t, srv, side, 1)
		*now = 2
		srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 500), Vel: geo.Vec(10, 0), At: 2})
		srv.Tick(2)
		*now = 6
		srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500, 510), Vel: geo.Vec(0, -5), At: 6})
		return srv, side, now
	}
	exporter, exSide, now := script()
	*now = 7
	reinstall(exporter)
	wantCover, wantInst := lastRegion[protocol.MonitorInstall](t, exSide)

	src, _, _ := script()
	st, ok := exportOne(src, 1)
	if !ok {
		t.Fatal("export refused")
	}
	if st.AdvVel != geo.Vec(10, 0) || st.QVel != geo.Vec(0, -5) {
		t.Fatalf("snapshot tracks: advertised %v, heard %v", st.AdvVel, st.QVel)
	}
	m, err := protocol.Decode(protocol.Encode(nil, st))
	if err != nil {
		t.Fatal(err)
	}
	importer, imSide, now := unitServer(t, baseCfg())
	*now = 6
	importer.ImportMonitor(m.(protocol.QueryHandoff), 6)
	*now = 7
	reinstall(importer)
	gotCover, gotInst := lastRegion[protocol.MonitorInstall](t, imSide)
	if gotInst != wantInst {
		t.Fatalf("importer installed %+v, exporter %+v", gotInst, wantInst)
	}
	if gotCover != wantCover {
		t.Fatalf("importer covered %v, exporter %v", gotCover, wantCover)
	}
}

// convoyRig is a server and object agents on a simnet with 10 m cells,
// stepped in the engine's round order. Every object moves with the query
// at its velocity, so it stays in the monitoring region while the region
// travels far from where it was installed.
type convoyRig struct {
	net    *simnet.Network
	srv    *Server
	agents []*ObjectAgent
	pos    []geo.Point
	vel    geo.Vector
	now    model.Tick
}

func newConvoyRig(t *testing.T, cfg Config, start geo.Point, offsets []geo.Vector, vel geo.Vector) *convoyRig {
	t.Helper()
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	cfg = cfg.WithWorldDefault(world)
	r := &convoyRig{
		net: simnet.New(simnet.Config{Geometry: grid.NewGeometry(world, 100, 100)}),
		vel: vel,
	}
	r.net.SetPositionOracle(func(id model.ObjectID) (geo.Point, bool) {
		if i := int(id) - 1; i >= 0 && i < len(r.pos) {
			return r.pos[i], true
		}
		return geo.Point{}, false
	})
	clock := func() model.Tick { return r.now }
	srv, err := NewServer(cfg, ServerDeps{Side: r.net.ServerSide(), Now: clock, DT: 1,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.srv = srv
	r.net.AttachServer(srv)
	for i, off := range offsets {
		id := model.ObjectID(i + 1)
		r.pos = append(r.pos, geo.Pt(start.X+off.X, start.Y+off.Y))
		a, err := NewObjectAgent(cfg, AgentDeps{ID: id, Side: r.net.ClientSide(id), Now: clock,
			Pos: func() geo.Point { return r.pos[i] }, DT: 1})
		if err != nil {
			t.Fatal(err)
		}
		r.agents = append(r.agents, a)
		r.net.AttachClient(id, a)
	}
	return r
}

// step advances one tick: motion, client ticks, server tick, and the
// finalize rounds, each followed by a delivery flush.
func (r *convoyRig) step(t *testing.T) {
	t.Helper()
	r.now++
	for i := range r.pos {
		r.pos[i] = geo.DeadReckon(r.pos[i], r.vel, 1)
	}
	r.net.SetNow(r.now)
	for _, a := range r.agents {
		a.Tick(r.now)
	}
	r.net.Flush()
	r.srv.Tick(r.now)
	r.net.Flush()
	for i := 0; r.srv.Finalize(r.now); i++ {
		if i == 64 {
			t.Fatalf("tick %d: server did not quiesce", r.now)
		}
		r.net.Flush()
	}
}

// The deregistration cancel reaches every object that holds the query,
// however far the region travelled since its install. A convoy of objects
// moves with the query, so objects near the region's front edge are 90 m
// (nine cells) beyond the install-time circle when the query
// deregisters; a cancel over that circle would leave them monitoring,
// and reporting, a query the server no longer has.
func TestDeregisterCancelReachesTravelledFrame(t *testing.T) {
	var offsets []geo.Vector
	for x := -200.0; x <= 200; x += 5 {
		offsets = append(offsets, geo.Vec(x, 2))
	}
	cfg := Config{HorizonTicks: 10, MinProbeRadius: 50, AnswerSlack: 2}
	r := newConvoyRig(t, cfg, geo.Pt(300, 500), offsets, geo.Vec(10, 0))
	r.srv.HandleUplink(9999, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(300, 500), Vel: geo.Vec(10, 0), At: 0})
	for r.now < 10 {
		r.step(t)
	}

	mon := r.srv.monitors[1]
	if mon == nil || !mon.installed || mon.installedAt > 2 {
		t.Fatalf("want one install at the start; monitor %+v", mon)
	}
	installed := geo.Circle{Center: mon.advPos, R: mon.radius}
	beyond := 0
	for i, a := range r.agents {
		if a.MonitorCount() > 0 && r.pos[i].Dist(installed.Center) > installed.R+20 {
			beyond++
		}
	}
	if beyond == 0 {
		t.Fatal("no aware object has left the install-time circle: the scenario tests nothing")
	}

	r.srv.HandleUplink(9999, protocol.QueryDeregister{Query: 1})
	r.net.Flush()
	for i, a := range r.agents {
		if n := a.MonitorCount(); n != 0 {
			t.Errorf("object %d at %v still holds the query after the cancel (%d objects were beyond the install circle %v)",
				i+1, r.pos[i], beyond, installed)
		}
	}
}

// The install cover soak: on a lossless, same-tick channel with moving
// queries and 10 m cells, every install reaches every object that holds
// the query. After every tick, an object holding a query holds the
// server's current epoch of it, and holds no query the server does not
// have. The subtest names keep the "influence=false" and "deviation=0"
// segments of the retired influence on/off loop and focal deviation
// threshold, so every case keeps the name it has always had.
func TestChaosInstallReachesEveryHolder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("influence=false/deviation=0/seed%d", seed), func(t *testing.T) {
			pc := quickProto()
			pc.ResyncTicks = 12
			soakInstallCoherence(t, pc, seed)
		})
	}
}

func soakInstallCoherence(t *testing.T, pc Config, seed int64) {
	cfg := workload.Quick()
	cfg.Seed = seed
	cfg.NumObjects = 300
	cfg.NumQueries = 4
	cfg.Cols, cfg.Rows = 100, 100
	cfg.LatencyTicks = 0
	cfg.DisableAudit = true
	rec := obs.NewRecorder(0)
	cfg.Trace = rec
	obs.DumpOnFailure(t, rec)
	m := mustDKNN(t, pc)
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	srv := m.Engine().(*Server)
	for tick := 0; tick < 80; tick++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for _, a := range m.Agents() {
			for _, am := range a.held() {
				mon := srv.monitors[am.query]
				switch {
				case mon == nil:
					t.Fatalf("tick %d: object %d holds query %d, which the server does not have",
						eng.Now(), a.id, am.query)
				case am.tr.epoch != mon.epoch:
					t.Fatalf("tick %d: object %d holds query %d at epoch %d, the server is at %d",
						eng.Now(), a.id, am.query, am.tr.epoch, mon.epoch)
				}
			}
		}
	}
}
