package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// recSide records everything the server sends.
type recSide struct {
	broadcasts []struct {
		region geo.Circle
		msg    protocol.Message
	}
	downlinks []struct {
		to  model.ObjectID
		msg protocol.Message
	}
}

func (r *recSide) Broadcast(region geo.Circle, m protocol.Message) {
	r.broadcasts = append(r.broadcasts, struct {
		region geo.Circle
		msg    protocol.Message
	}{region, m})
}

func (r *recSide) Downlink(to model.ObjectID, m protocol.Message) {
	r.downlinks = append(r.downlinks, struct {
		to  model.ObjectID
		msg protocol.Message
	}{to, m})
}

func (r *recSide) lastBroadcast() protocol.Message {
	if len(r.broadcasts) == 0 {
		return nil
	}
	return r.broadcasts[len(r.broadcasts)-1].msg
}

// unitServer builds a server over a recording side with a controllable
// clock.
func unitServer(t *testing.T, cfg Config) (*Server, *recSide, *model.Tick) {
	t.Helper()
	now := new(model.Tick)
	side := &recSide{}
	srv, err := NewServer(cfg.WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))),
		ServerDeps{
			Side:           side,
			Now:            func() model.Tick { return *now },
			DT:             1,
			MaxObjectSpeed: 10,
			MaxQuerySpeed:  10,
		})
	if err != nil {
		t.Fatal(err)
	}
	return srv, side, now
}

func baseCfg() Config {
	return Config{
		HorizonTicks:   10,
		MinProbeRadius: 100,
		AnswerSlack:    2,
	}
}

func TestNewServerRequiresMaxProbeRadius(t *testing.T) {
	cfg := baseCfg() // no MaxProbeRadius, no WithWorldDefault
	if _, err := NewServer(cfg, ServerDeps{}); err == nil {
		t.Fatal("NewServer accepted zero MaxProbeRadius")
	}
}

func TestRegisterStartsProbe(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
	if srv.QueryCount() != 1 {
		t.Fatal("query not registered")
	}
	srv.Tick(1)
	probe, ok := side.lastBroadcast().(protocol.ProbeRequest)
	if !ok {
		t.Fatalf("expected a probe broadcast, got %T", side.lastBroadcast())
	}
	if probe.Region.R != 100 {
		t.Errorf("initial probe radius = %v, want MinProbeRadius", probe.Region.R)
	}
	// Duplicate registration is ignored.
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 9, Pos: geo.Pt(0, 0), At: 1})
	if srv.QueryCount() != 1 {
		t.Fatal("duplicate registration created a second monitor")
	}
}

// k is bounded by what an answer can carry: an AnswerUpdate counts its
// neighbors in a u16, so k = 65 536 is refused at registration and
// k = 65 535 is accepted, and an answer that large still decodes.
func TestRegisterBoundsKByAnswerCount(t *testing.T) {
	srv, _, now := unitServer(t, baseCfg())
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 1 << 16, Pos: geo.Pt(500, 500), At: 1})
	if srv.HasQuery(1) {
		t.Fatal("registered k = 65536, more neighbors than an answer-update can count")
	}
	srv.HandleUplink(500, protocol.QueryRegister{Query: 2, K: 1<<16 - 1, Pos: geo.Pt(500, 500), At: 1})
	if !srv.HasQuery(2) {
		t.Fatal("refused k = 65535, the largest answer-update count")
	}
	full := protocol.AnswerUpdate{Query: 2, Neighbors: make([]model.Neighbor, maxK)}
	if _, err := protocol.Decode(protocol.Encode(nil, full)); err != nil {
		t.Fatalf("answer-update with maxK neighbors: %v", err)
	}
}

func TestProbeExpandsUntilEnoughReplies(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
	srv.Tick(1)
	probe := side.lastBroadcast().(protocol.ProbeRequest)

	// No replies: the ring doubles.
	if !srv.Finalize(1) {
		t.Fatal("Finalize should expand the probe")
	}
	probe2 := side.lastBroadcast().(protocol.ProbeRequest)
	if probe2.Region.R != 2*probe.Region.R {
		t.Errorf("expanded radius %v, want doubled %v", probe2.Region.R, 2*probe.Region.R)
	}
	if probe2.Seq != probe.Seq+1 {
		t.Error("probe sequence did not advance")
	}

	// One reply (k=2 needs two): expands again.
	srv.HandleUplink(1, protocol.ProbeReply{Query: 1, Seq: probe2.Seq, Object: 1, Pos: geo.Pt(510, 500)})
	if !srv.Finalize(1) {
		t.Fatal("Finalize should expand again")
	}
	probe3 := side.lastBroadcast().(protocol.ProbeRequest)

	// Two replies: installs.
	srv.HandleUplink(1, protocol.ProbeReply{Query: 1, Seq: probe3.Seq, Object: 1, Pos: geo.Pt(510, 500)})
	srv.HandleUplink(2, protocol.ProbeReply{Query: 1, Seq: probe3.Seq, Object: 2, Pos: geo.Pt(520, 500)})
	if !srv.Finalize(1) {
		t.Fatal("Finalize should install")
	}
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok {
		t.Fatalf("expected install, got %T", side.lastBroadcast())
	}
	if inst.Refresh {
		t.Error("probe-based install must not be a refresh")
	}
	if inst.Radius < inst.AnswerRadius {
		t.Error("monitoring region smaller than answer boundary")
	}
	// Answer downlinked to the focal client.
	if len(side.downlinks) == 0 || side.downlinks[len(side.downlinks)-1].to != 500 {
		t.Fatal("no AnswerUpdate downlink to the registrant")
	}
	au := side.downlinks[len(side.downlinks)-1].msg.(protocol.AnswerUpdate)
	if len(au.Neighbors) != 2 || au.Neighbors[0].ID != 1 || au.Neighbors[1].ID != 2 {
		t.Fatalf("answer = %v", au.Neighbors)
	}
	// Quiescent afterwards.
	if srv.Finalize(1) {
		t.Error("Finalize not quiescent after install")
	}
}

// install completes a standard register→probe→reply→install handshake for
// a k=2 query at (500,500) with two objects and returns the install.
func installQuery(t *testing.T, srv *Server, side *recSide, now model.Tick) protocol.MonitorInstall {
	t.Helper()
	return installMovingQuery(t, srv, side, now, geo.Vector{})
}

// installMovingQuery is installQuery for a focal client that registers
// with velocity vel.
func installMovingQuery(t *testing.T, srv *Server, side *recSide, now model.Tick, vel geo.Vector) protocol.MonitorInstall {
	t.Helper()
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), Vel: vel, At: now})
	srv.Tick(now)
	objects := map[model.ObjectID]geo.Point{
		1: geo.Pt(510, 500),
		2: geo.Pt(530, 500),
		3: geo.Pt(560, 500),
	}
	reply := func() {
		probe, ok := side.lastBroadcast().(protocol.ProbeRequest)
		if !ok {
			return
		}
		for id, p := range objects {
			if probe.Region.Contains(p) {
				srv.HandleUplink(id, protocol.ProbeReply{
					Query: 1, Seq: probe.Seq, Object: id, Pos: p,
				})
			}
		}
	}
	reply()
	for i := 0; i < 6 && srv.Finalize(now); i++ {
		reply()
	}
	switch v := side.lastBroadcast().(type) {
	case protocol.MonitorInstall:
		return v
	default:
		t.Fatalf("no install; last broadcast %T", side.lastBroadcast())
		return protocol.MonitorInstall{}
	}
}

func TestEnterExitMaintainAnswer(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	a := srv.Answer(1)
	if len(a.Neighbors) != 2 || a.Neighbors[0].ID != 1 {
		t.Fatalf("initial answer %v", a.Neighbors)
	}

	// Object 4 enters very close: answer must change to {4, 1}.
	*now = 2
	srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 2,
	}})
	a = srv.Answer(1)
	if a.Neighbors[0].ID != 4 || a.Neighbors[1].ID != 1 {
		t.Fatalf("post-enter answer %v", a.Neighbors)
	}

	// Object 4 exits again: answer reverts.
	srv.HandleUplink(4, protocol.ExitReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(900, 900), At: 2,
	}})
	a = srv.Answer(1)
	if a.Neighbors[0].ID != 1 || a.Neighbors[1].ID != 2 {
		t.Fatalf("post-exit answer %v", a.Neighbors)
	}
}

func TestStaleEpochReportsIgnoredBeyondGrace(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	// A report from epochGrace+1 epochs ago must be dropped.
	old := inst.Epoch - (epochGrace + 1) // wraps: huge number > epoch -> also rejected
	srv.HandleUplink(9, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: old, Object: 9, Pos: geo.Pt(500, 501), At: 1,
	}})
	for _, n := range srv.Answer(1).Neighbors {
		if n.ID == 9 {
			t.Fatal("stale-epoch report was applied")
		}
	}
	// A future epoch is equally invalid.
	srv.HandleUplink(9, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch + 1, Object: 9, Pos: geo.Pt(500, 501), At: 1,
	}})
	for _, n := range srv.Answer(1).Neighbors {
		if n.ID == 9 {
			t.Fatal("future-epoch report was applied")
		}
	}
}

func TestMoveReportAffirmsMembership(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	// A MoveReport from an object the server does not track as inside
	// (e.g. its EnterReport was lost) must still make it a member.
	srv.HandleUplink(7, protocol.MoveReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 7, Pos: geo.Pt(501, 500), At: 1,
	}})
	a := srv.Answer(1)
	if a.Neighbors[0].ID != 7 {
		t.Fatalf("move report did not affirm membership: %v", a.Neighbors)
	}
}

func TestHorizonTriggersRefreshNotProbe(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	preBroadcasts := len(side.broadcasts)

	*now = 11 // horizon is 10
	srv.Tick(11)
	if len(side.broadcasts) != preBroadcasts+1 {
		t.Fatalf("expected exactly one broadcast, got %d new", len(side.broadcasts)-preBroadcasts)
	}
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok {
		t.Fatalf("horizon reinstall should be an install, got %T", side.lastBroadcast())
	}
	if !inst.Refresh {
		t.Error("horizon reinstall with a healthy buffer should be a refresh")
	}
}

func TestBufferDrainTriggersProbe(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	// All three known objects leave: fewer than k=2 inside -> a probe, not
	// a refresh.
	for obj := model.ObjectID(1); obj <= 3; obj++ {
		srv.HandleUplink(obj, protocol.MoveReport{MemberReport: protocol.MemberReport{
			Query: 1, Epoch: inst.Epoch, Object: obj, Pos: geo.Pt(950, 950), At: 1,
		}})
	}
	*now = 2
	srv.Tick(2)
	if _, ok := side.lastBroadcast().(protocol.ProbeRequest); !ok {
		t.Fatalf("drained buffer should trigger a probe, got %T", side.lastBroadcast())
	}
}

func TestQueryMoveTriggersRefresh(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	*now = 2
	srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(520, 500), At: 2})
	srv.Tick(2)
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok {
		t.Fatalf("query move should reinstall, got %T", side.lastBroadcast())
	}
	if inst.QueryPos != geo.Pt(520, 500) {
		t.Errorf("install advertises %v, want the corrected position", inst.QueryPos)
	}
}

func TestDeregisterBroadcastsCancel(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	srv.HandleUplink(500, protocol.QueryDeregister{Query: 1})
	if _, ok := side.lastBroadcast().(protocol.MonitorCancel); !ok {
		t.Fatalf("deregister should cancel, got %T", side.lastBroadcast())
	}
	if srv.QueryCount() != 0 {
		t.Fatal("monitor retained")
	}
	// Deregistering an unknown query is a no-op.
	srv.HandleUplink(500, protocol.QueryDeregister{Query: 42})
}

func TestSparseWorldFewerThanKObjects(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 5, Pos: geo.Pt(500, 500), At: 1})
	srv.Tick(1)
	// Only one object exists; it replies to whichever probe covers it.
	for i := 0; i < 8; i++ {
		if !srv.Finalize(1) {
			break
		}
		if probe, ok := side.lastBroadcast().(protocol.ProbeRequest); ok {
			if probe.Region.Contains(geo.Pt(300, 300)) {
				srv.HandleUplink(1, protocol.ProbeReply{
					Query: 1, Seq: probe.Seq, Object: 1, Pos: geo.Pt(300, 300),
				})
			}
		}
	}
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok {
		t.Fatalf("sparse world never installed; last %T", side.lastBroadcast())
	}
	// The monitor must cover the probed area so the lone object stays
	// aware.
	if inst.AnswerRadius <= 0 {
		t.Error("empty answer radius in sparse world")
	}
	a := srv.Answer(1)
	if len(a.Neighbors) != 1 || a.Neighbors[0].ID != 1 {
		t.Fatalf("sparse answer %v", a.Neighbors)
	}
}

func TestUnknownUplinkKindsIgnored(t *testing.T) {
	srv, _, _ := unitServer(t, baseCfg())
	// LocationReport is not part of this protocol; must not panic or
	// register anything.
	srv.HandleUplink(1, protocol.LocationReport{Object: 1, Pos: geo.Pt(1, 1)})
	if srv.QueryCount() != 0 {
		t.Fatal("spurious state from unknown kind")
	}
	// Reports for unknown queries are ignored.
	srv.HandleUplink(1, protocol.EnterReport{MemberReport: protocol.MemberReport{Query: 77}})
	srv.HandleUplink(1, protocol.ProbeReply{Query: 77})
	srv.HandleUplink(1, protocol.QueryMove{Query: 77})
}

func TestBusyTimeAccumulates(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	if srv.BusyTime() <= 0 {
		t.Error("BusyTime not tracked")
	}
}

// A vanished client is purged from answers (connection-oriented media).
func TestHandleClientGone(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	// Transient object 50 enters closest.
	srv.HandleUplink(50, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 50, Pos: geo.Pt(500, 502), At: 1,
	}})
	if a := srv.Answer(1); a.Neighbors[0].ID != 50 {
		t.Fatalf("enter not applied: %v", a.Neighbors)
	}
	srv.HandleClientGone(50)
	for _, n := range srv.Answer(1).Neighbors {
		if n.ID == 50 {
			t.Fatalf("vanished client still in answer: %v", srv.Answer(1).Neighbors)
		}
	}
	// A vanished focal client tears its query down.
	srv.HandleClientGone(500)
	if srv.QueryCount() != 0 {
		t.Fatal("query survived its focal client")
	}
}

// A client that answered a pending probe and then vanished must not be
// resurrected when the probe round concludes.
func TestHandleClientGonePurgesPendingProbeReplies(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 1, Pos: geo.Pt(500, 500), At: 1})
	srv.Tick(1)
	probe := side.lastBroadcast().(protocol.ProbeRequest)
	// Two replies; the nearer replier dies before the round concludes.
	srv.HandleUplink(50, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 50, Pos: geo.Pt(500, 505)})
	srv.HandleUplink(51, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 51, Pos: geo.Pt(500, 520)})
	srv.HandleClientGone(50)
	for i := 0; i < 6 && srv.Finalize(1); i++ {
		if probe2, ok := side.lastBroadcast().(protocol.ProbeRequest); ok {
			srv.HandleUplink(51, protocol.ProbeReply{Query: 1, Seq: probe2.Seq, Object: 51, Pos: geo.Pt(500, 520)})
		}
	}
	a := srv.Answer(1)
	for _, n := range a.Neighbors {
		if n.ID == 50 {
			t.Fatalf("vanished probe replier resurrected: %v", a.Neighbors)
		}
	}
	if len(a.Neighbors) != 1 || a.Neighbors[0].ID != 51 {
		t.Fatalf("answer = %v, want {51}", a.Neighbors)
	}
}

// The server is an open network surface: garbage from adversarial or
// buggy clients must never panic it, blow up memory, or corrupt the
// answers of well-behaved queries.
func TestServerRobustToAdversarialClients(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1) // a legitimate query

	nan := math.NaN()
	hostile := []protocol.Message{
		protocol.QueryRegister{Query: 66, K: 0, Pos: geo.Pt(1, 1), At: 1},
		protocol.QueryRegister{Query: 67, K: 1 << 30, Pos: geo.Pt(1, 1), At: 1},
		protocol.QueryRegister{Query: 68, K: 5, Range: -10, Pos: geo.Pt(1, 1), At: 1},
		protocol.QueryRegister{Query: 69, K: 5, Range: nan, Pos: geo.Pt(1, 1), At: 1},
		protocol.QueryRegister{Query: 70, K: 5, Pos: geo.Pt(nan, nan), At: 1},
		protocol.QueryMove{Query: 1, Pos: geo.Pt(nan, nan), At: 1},
		protocol.EnterReport{MemberReport: protocol.MemberReport{
			Query: 1, Epoch: inst.Epoch, Object: 0, Pos: geo.Pt(nan, 5), At: 1}},
		protocol.MoveReport{MemberReport: protocol.MemberReport{
			Query: 1, Epoch: inst.Epoch, Object: 77, Pos: geo.Pt(1e308, 1e308), At: 1}},
		protocol.ProbeReply{Query: 1, Seq: 9999, Object: 5, Pos: geo.Pt(5, 5)},
		protocol.QueryDeregister{Query: 4242},
	}
	for _, m := range hostile {
		srv.HandleUplink(9999, m)
	}
	// Hostile registrations must have been rejected.
	if got := srv.QueryCount(); got != 1 {
		t.Fatalf("QueryCount = %d after hostile registrations, want 1", got)
	}
	// The server keeps ticking and finalizing without panicking.
	for tick := model.Tick(2); tick < 30; tick++ {
		*now = tick
		srv.Tick(tick)
		for i := 0; i < 6 && srv.Finalize(tick); i++ {
		}
	}
	// The legitimate query still answers with sane, sorted members.
	a := srv.Answer(1)
	if len(a.Neighbors) == 0 {
		t.Fatal("legitimate query lost its answer")
	}
	for i := 1; i < len(a.Neighbors); i++ {
		if a.Neighbors[i].Dist < a.Neighbors[i-1].Dist {
			t.Fatalf("answer unsorted: %v", a.Neighbors)
		}
	}
}

// A report whose position is NaN or infinite must be dropped whole: stored,
// it yields a NaN distance, which the neighbor order places first, pinning
// a bogus nearest neighbour until the next probe. No honest agent sends
// one; the radio is an open surface.
func TestNonFiniteReportPositionsDropped(t *testing.T) {
	wrap := map[string]func(protocol.MemberReport) protocol.Message{
		"enter": func(mr protocol.MemberReport) protocol.Message { return protocol.EnterReport{MemberReport: mr} },
		"exit":  func(mr protocol.MemberReport) protocol.Message { return protocol.ExitReport{MemberReport: mr} },
		"move":  func(mr protocol.MemberReport) protocol.Message { return protocol.MoveReport{MemberReport: mr} },
	}
	bad := []geo.Point{
		geo.Pt(math.NaN(), 500), geo.Pt(500, math.NaN()),
		geo.Pt(math.Inf(1), 500), geo.Pt(500, math.Inf(-1)),
	}
	for kind, msg := range wrap {
		t.Run(kind, func(t *testing.T) {
			srv, side, now := unitServer(t, baseCfg())
			*now = 1
			inst := installQuery(t, srv, side, 1)
			want := srv.Answer(1).Neighbors
			sends := len(side.broadcasts) + len(side.downlinks)
			mon := srv.monitors[1]
			// Object 2 is an answer member, object 9 a stranger.
			for _, id := range []model.ObjectID{2, 9} {
				before, knownBefore, insideBefore := mon.stored(id)
				for _, p := range bad {
					srv.HandleUplink(id, msg(protocol.MemberReport{
						Query: 1, Epoch: inst.Epoch, Object: id, Pos: p, At: 1,
					}))
				}
				if pos, known, inside := mon.stored(id); pos != before || known != knownBefore || inside != insideBefore {
					t.Errorf("object %d: record changed to %v known=%v inside=%v", id, pos, known, inside)
				}
			}
			if got := srv.Answer(1).Neighbors; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Errorf("answer %v, want %v", got, want)
			}
			if n := len(side.broadcasts) + len(side.downlinks); n != sends {
				t.Errorf("%d sends triggered", n-sends)
			}
			if mon.reinstall != noReinstall {
				t.Error("dropped reports marked the monitor for reinstall")
			}
		})
	}
	// Enter and move reports carry a track: a non-finite velocity would
	// put every later dead-reckoned position of the row at NaN.
	t.Run("velocity", func(t *testing.T) {
		srv, side, now := unitServer(t, baseCfg())
		*now = 1
		inst := installQuery(t, srv, side, 1)
		want := srv.Answer(1).Neighbors
		mon := srv.monitors[1]
		for _, id := range []model.ObjectID{2, 9} {
			before, knownBefore, insideBefore := mon.stored(id)
			for _, v := range []geo.Vector{geo.Vec(math.NaN(), 0), geo.Vec(0, math.Inf(1)), geo.Vec(math.Inf(-1), 1)} {
				mr := protocol.MemberReport{Query: 1, Epoch: inst.Epoch, Object: id, Pos: geo.Pt(501, 500), At: 1}
				srv.HandleUplink(id, protocol.EnterReport{MemberReport: mr, Vel: v})
				srv.HandleUplink(id, protocol.MoveReport{MemberReport: mr, Vel: v})
			}
			if pos, known, inside := mon.stored(id); pos != before || known != knownBefore || inside != insideBefore {
				t.Errorf("object %d: record changed to %v known=%v inside=%v", id, pos, known, inside)
			}
		}
		*now = 2
		srv.Tick(2)
		if got := srv.Answer(1).Neighbors; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("answer %v, want %v", got, want)
		}
	})
	t.Run("probe-reply", func(t *testing.T) {
		srv, side, now := unitServer(t, baseCfg())
		*now = 1
		srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
		srv.Tick(1)
		probe := side.lastBroadcast().(protocol.ProbeRequest)
		for _, p := range bad {
			srv.HandleUplink(2, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 2, Pos: p})
		}
		if n := srv.monitors[1].replies.Len(); n != 0 {
			t.Errorf("%d non-finite probe replies stored", n)
		}
	})
	// The inter-node link is the same kind of surface: a snapshot's
	// candidate with a non-finite position is imported without it.
	t.Run("import", func(t *testing.T) {
		srv, side, now := unitServer(t, baseCfg())
		*now = 1
		installQuery(t, srv, side, 1)
		st, ok := exportOne(srv, 1)
		if !ok || len(st.Candidates) != 3 {
			t.Fatalf("export ok=%v candidates=%v", ok, st.Candidates)
		}
		st.Candidates[0].Pos = geo.Pt(math.NaN(), 500) // object 1, the nearest
		st.Candidates[1].Vel = geo.Vec(0, math.Inf(1)) // object 2
		srv.ImportMonitor(st, 1)
		if _, known, _ := srv.monitors[1].stored(1); known {
			t.Error("non-finite candidate position imported")
		}
		if _, known, _ := srv.monitors[1].stored(2); known {
			t.Error("non-finite candidate velocity imported")
		}
		for _, n := range srv.Answer(1).Neighbors {
			if math.IsNaN(n.Dist) {
				t.Errorf("answer carries a NaN distance: %v", srv.Answer(1).Neighbors)
			}
		}
	})
}

// A monitor installed from a probe storm gives the storm's row capacity
// back once refresh installs have pruned its table to the answer buffer.
func TestMemberTableGivesBackProbeCapacity(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg()) // k = 2, AnswerSlack 2, δ = 200
	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
	srv.Tick(1)
	// Four objects within 4 m form the k+m buffer; 2 000 more fill the
	// annulus out to 90 m, inside every ring the probe expands to.
	const crowd = 2000
	pos := map[model.ObjectID]geo.Point{}
	for i := 1; i <= 4; i++ {
		pos[model.ObjectID(i)] = geo.Pt(500+float64(i), 500)
	}
	for i := 0; i < crowd; i++ {
		a := 2 * math.Pi * float64(i) / crowd
		r := 10 + 80*float64(i%97)/97
		pos[model.ObjectID(1000+i)] = geo.Pt(500+r*math.Cos(a), 500+r*math.Sin(a))
	}
	var inst protocol.MonitorInstall
	for round := 0; ; round++ {
		switch m := side.lastBroadcast().(type) {
		case protocol.ProbeRequest:
			for id, p := range pos {
				if m.Region.Contains(p) {
					srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: m.Seq, Object: id, Pos: p})
				}
			}
		case protocol.MonitorInstall:
			inst = m
		}
		if inst.Epoch != 0 {
			break
		}
		if round == 6 || !srv.Finalize(1) {
			t.Fatalf("no install after %d rounds; last broadcast %T", round, side.lastBroadcast())
		}
	}
	tab := &srv.monitors[1].tab
	if n := len(tab.rows) + len(tab.cold); n < crowd {
		t.Fatalf("installed %d rows; the scenario needs the probe's %d", n, crowd)
	}
	// The crowd moves out of the monitoring region in two waves, each
	// reported by exits, and a refresh install prunes each wave.
	for wave, tick := 0, model.Tick(1); wave < 2; wave++ {
		for i := wave * crowd / 2; i < (wave+1)*crowd/2; i++ {
			id := model.ObjectID(1000 + i)
			srv.HandleUplink(id, protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: 1, Epoch: inst.Epoch + uint32(wave), Object: id, Pos: geo.Pt(500, 950), At: tick,
			}})
		}
		tick += model.Tick(baseCfg().HorizonTicks)
		*now = tick
		srv.Tick(tick)
		if m, ok := side.lastBroadcast().(protocol.MonitorInstall); !ok || !m.Refresh {
			t.Fatalf("wave %d: last broadcast %T, want a refresh install", wave, side.lastBroadcast())
		}
		for _, tt := range []struct {
			n, c  int
			floor int
		}{{len(tab.rows), cap(tab.rows), minRowCap}, {len(tab.cold), cap(tab.cold), minColdCap}} {
			if tt.c > max(tt.floor, 4*tt.n) {
				t.Errorf("wave %d: %d rows in capacity %d, want at most max(%d, 4·%d)", wave, tt.n, tt.c, tt.floor, tt.n)
			}
		}
	}
	if n := len(tab.rows) + len(tab.cold); n != 4 {
		t.Fatalf("%d rows left after both waves, want the 4 of the buffer", n)
	}
}

// Reports are applied one at a time, so a tick in which one member exits
// and another enters passes through an answer no instant had: {2, 3}
// between {1, 2} and {4, 2}. The client hears only the tick's last answer,
// once, when the round ends: a full update naming {4, 2}, or in delta
// mode the net change, 4 in and 1 out.
func TestOneAnswerPerQueryPerTick(t *testing.T) {
	for _, delta := range []bool{false, true} {
		t.Run(fmt.Sprintf("delta=%v", delta), func(t *testing.T) {
			cfg := baseCfg()
			cfg.DeltaAnswers = delta
			srv, side, now := unitServer(t, cfg)
			*now = 1
			inst := installQuery(t, srv, side, 1)
			base := len(side.downlinks)

			*now = 2
			srv.Tick(2)
			srv.HandleUplink(1, protocol.ExitReport{MemberReport: protocol.MemberReport{
				Query: 1, Epoch: inst.Epoch, Object: 1, Pos: geo.Pt(900, 900), At: 2,
			}})
			srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
				Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 2,
			}})
			if n := len(side.downlinks) - base; n != 0 {
				t.Fatalf("reports sent %d answers before the round ended, want 0", n)
			}
			if !srv.Finalize(2) {
				t.Fatal("Finalize sent nothing")
			}
			if srv.Finalize(2) {
				t.Fatal("a second Finalize round sent again")
			}
			if n := len(side.downlinks) - base; n != 1 {
				t.Fatalf("the tick sent %d answers, want 1", n)
			}
			want := []model.Neighbor{{ID: 4, Dist: 5}, {ID: 2, Dist: 30}}
			switch m := side.downlinks[base].msg.(type) {
			case protocol.AnswerUpdate:
				if delta || m.Seq != 2 || !slices.Equal(m.Neighbors, want) {
					t.Fatalf("answer %+v, want a full update seq 2 naming %v", m, want)
				}
			case protocol.AnswerDelta:
				if !delta || m.Seq != 2 || !slices.Equal(m.Added, want[:1]) ||
					!slices.Equal(m.Removed, []model.ObjectID{1}) {
					t.Fatalf("delta %+v, want seq 2 adding 4 and removing 1", m)
				}
			default:
				t.Fatalf("answer is %T", m)
			}
			if got := srv.Answer(1).Neighbors; !slices.Equal(got, want) {
				t.Fatalf("maintained answer %v, want %v", got, want)
			}
		})
	}
}

// A refresh install's r_b is its (k+m)-th member's distance, and the
// same distance places that member inside it. The boundary member stands
// where math.Hypot rounds its distance an ulp below the rounded-product
// root that decides sides; a refresh at horizon expiry must still hold
// all k+m members inside, not file the (k+m)-th outside at its own
// install.
func TestRefreshInstallKeepsBoundaryMember(t *testing.T) {
	cfg := baseCfg()
	srv, side, now := unitServer(t, cfg)
	center := geo.Pt(500, 500)
	var edge geo.Point
	for i := 0; ; i++ {
		if i == 100000 {
			t.Fatal("no offset where math.Hypot rounds below the rounded-product root")
		}
		edge = geo.Pt(530+float64(i%97)*0.137, 530+float64(i/97)*0.113)
		dx, dy := edge.X-center.X, edge.Y-center.Y
		if math.Hypot(dx, dy) < math.Sqrt(float64(dx*dx)+float64(dy*dy)) {
			break
		}
	}
	// Three members nearer than the edge one, two beyond it: k+m+2.
	pos := []geo.Point{geo.Pt(510, 500), geo.Pt(500, 520), geo.Pt(470, 500), edge, geo.Pt(580, 500), geo.Pt(500, 410)}
	k := 2
	want := k + cfg.AnswerSlack

	*now = 1
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: uint32(k), Pos: center, At: 1})
	srv.Tick(1)
	for {
		probe, ok := side.lastBroadcast().(protocol.ProbeRequest)
		if !ok {
			break
		}
		for i, p := range pos {
			id := model.ObjectID(i + 1)
			srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: id, Pos: p})
		}
		srv.Finalize(1)
	}
	mon := srv.monitors[1]
	if !mon.installed || mon.tab.nInside != want {
		t.Fatalf("full install: installed %v, %d inside, want %d", mon.installed, mon.tab.nInside, want)
	}

	*now = 1 + model.Tick(cfg.HorizonTicks)
	srv.Tick(*now)
	inst, ok := side.lastBroadcast().(protocol.MonitorInstall)
	if !ok || !inst.Refresh || inst.At != *now {
		t.Fatalf("horizon expiry sent %+v, want a refresh install", side.lastBroadcast())
	}
	if inst.AnswerRadius != edge.Dist(center) {
		t.Fatalf("refresh r_b %v, want the edge member's distance %v", inst.AnswerRadius, edge.Dist(center))
	}
	if mon.tab.nInside != want {
		t.Errorf("after the refresh install %d members inside, want %d: the (k+m)-th was filed outside its own r_b", mon.tab.nInside, want)
	}
}

// An answer's neighbor count travels as a u16, and a range answer has no
// other bound: a range monitor answers with the nearest 65 535 members,
// and that answer decodes. With the whole membership the count wrapped to
// 0 and every receiver rejected the message as trailing bytes.
func TestRangeAnswerFitsItsCount(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	center := geo.Pt(500, 500)
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, Range: 300, Pos: center, At: 1})
	srv.Tick(1)
	// One member more than a count holds, at distinct distances inside
	// the range; the last is the farthest.
	const members = math.MaxUint16 + 1
	pos := make([]geo.Point, members)
	for i := range pos {
		r, a := 290*math.Sqrt(float64(i+1)/members), float64(i)*2.399963229728653
		pos[i] = geo.Pt(center.X+r*math.Cos(a), center.Y+r*math.Sin(a))
	}
	for range 4 {
		probe, ok := side.lastBroadcast().(protocol.ProbeRequest)
		if !ok {
			break
		}
		for i, p := range pos {
			id := model.ObjectID(i + 1)
			srv.HandleUplink(id, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: id, Pos: p})
		}
		srv.Finalize(1)
	}
	var answer protocol.AnswerUpdate
	for _, d := range side.downlinks {
		if a, ok := d.msg.(protocol.AnswerUpdate); ok && d.to == 500 {
			answer = a
		}
	}
	if len(answer.Neighbors) != math.MaxUint16 {
		t.Fatalf("answer names %d members, want the nearest %d", len(answer.Neighbors), math.MaxUint16)
	}
	for _, n := range answer.Neighbors {
		if n.ID == members {
			t.Fatal("the answer names the farthest member")
		}
	}
	got, err := protocol.Decode(protocol.Encode(nil, answer))
	if err != nil {
		t.Fatalf("the answer does not decode: %v", err)
	}
	if n := len(got.(protocol.AnswerUpdate).Neighbors); n != math.MaxUint16 {
		t.Fatalf("decoded %d members, want %d", n, math.MaxUint16)
	}
}
