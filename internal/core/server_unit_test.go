package core

import (
	"math"
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
	srv.HandleUplink(1, protocol.ProbeReply{Query: 1, Seq: probe2.Seq, Object: 1, Pos: geo.Pt(510, 500), At: 1})
	if !srv.Finalize(1) {
		t.Fatal("Finalize should expand again")
	}
	probe3 := side.lastBroadcast().(protocol.ProbeRequest)

	// Two replies: installs.
	srv.HandleUplink(1, protocol.ProbeReply{Query: 1, Seq: probe3.Seq, Object: 1, Pos: geo.Pt(510, 500), At: 1})
	srv.HandleUplink(2, protocol.ProbeReply{Query: 1, Seq: probe3.Seq, Object: 2, Pos: geo.Pt(520, 500), At: 1})
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
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: now})
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
					Query: 1, Seq: probe.Seq, Object: id, Pos: p, At: now,
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
	case protocol.InfluenceInstall: // influence-mode servers install with this kind
		return v.Install
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
		srv.HandleUplink(obj, protocol.LeaveReport{MemberReport: protocol.MemberReport{
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
					Query: 1, Seq: probe.Seq, Object: 1, Pos: geo.Pt(300, 300), At: 1,
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
	srv.HandleUplink(50, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 50, Pos: geo.Pt(500, 505), At: 1})
	srv.HandleUplink(51, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 51, Pos: geo.Pt(500, 520), At: 1})
	srv.HandleClientGone(50)
	for i := 0; i < 6 && srv.Finalize(1); i++ {
		if probe2, ok := side.lastBroadcast().(protocol.ProbeRequest); ok {
			srv.HandleUplink(51, protocol.ProbeReply{Query: 1, Seq: probe2.Seq, Object: 51, Pos: geo.Pt(500, 520), At: 1})
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
		protocol.ProbeReply{Query: 1, Seq: 9999, Object: 5, Pos: geo.Pt(5, 5), At: 1},
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
		"leave": func(mr protocol.MemberReport) protocol.Message { return protocol.LeaveReport{MemberReport: mr} },
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
			if mon.needsReinstall {
				t.Error("dropped reports marked the monitor for reinstall")
			}
		})
	}
	t.Run("probe-reply", func(t *testing.T) {
		srv, side, now := unitServer(t, baseCfg())
		*now = 1
		srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
		srv.Tick(1)
		probe := side.lastBroadcast().(protocol.ProbeRequest)
		for _, p := range bad {
			srv.HandleUplink(2, protocol.ProbeReply{Query: 1, Seq: probe.Seq, Object: 2, Pos: p, At: 1})
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
		st, ok := srv.ExportMonitor(1)
		if !ok || len(st.Candidates) != 3 {
			t.Fatalf("export ok=%v candidates=%v", ok, st.Candidates)
		}
		st.Candidates[0].Pos = geo.Pt(math.NaN(), 500) // object 1, the nearest
		srv.ImportMonitor(st, 1)
		if _, known, _ := srv.monitors[1].stored(1); known {
			t.Error("non-finite candidate position imported")
		}
		for _, n := range srv.Answer(1).Neighbors {
			if math.IsNaN(n.Dist) {
				t.Errorf("answer carries a NaN distance: %v", srv.Answer(1).Neighbors)
			}
		}
	})
}
