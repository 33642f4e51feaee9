package core

import (
	"math"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// unitQueryAgent builds the focal client matching installQuery's setup
// (query 1, k=2, addr 500, stationary at (500,500)).
func unitQueryAgent(t *testing.T, now *model.Tick, latency int) (*QueryAgent, *recClient) {
	t.Helper()
	side := &recClient{}
	cfg := baseCfg().WithWorldDefault(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)))
	qa, err := NewQueryAgent(cfg, model.QuerySpec{ID: 1, K: 2, Pos: geo.Pt(500, 500)},
		QueryAgentDeps{
			AgentDeps: AgentDeps{
				ID: 500, Side: side,
				Now:          func() model.Tick { return *now },
				Pos:          func() geo.Point { return geo.Pt(500, 500) },
				DT:           1,
				LatencyTicks: latency,
			},
			Vel: func() geo.Vector { return geo.Vector{} },
		})
	if err != nil {
		t.Fatal(err)
	}
	return qa, side
}

// answerProbes replies to the currently broadcast probe (and any
// expansions) for query 1 with the given object positions.
func answerProbes(t *testing.T, srv *Server, side *recSide, now model.Tick, objects map[model.ObjectID]geo.Point) {
	t.Helper()
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
}

func memberIDs(ns []model.Neighbor) []model.ObjectID {
	ids := make([]model.ObjectID, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

func sameIDs(a, b []model.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[model.ObjectID]bool, len(a))
	for _, n := range a {
		set[n.ID] = true
	}
	for _, n := range b {
		if !set[n.ID] {
			return false
		}
	}
	return true
}

// The tentpole acceptance test: a deliberately dropped AnswerDelta is
// detected by the focal client from the sequence gap and repaired with a
// full re-baseline in exactly one request/response round trip.
func TestDroppedDeltaDetectedAndRepairedOneRoundTrip(t *testing.T) {
	cfg := baseCfg()
	cfg.DeltaAnswers = true
	srv, side, now := unitServer(t, cfg)
	*now = 1
	inst := installQuery(t, srv, side, 1)
	qa, qside := unitQueryAgent(t, now, 0)

	// The install baselines the client with a full AnswerUpdate.
	if len(side.downlinks) != 1 {
		t.Fatalf("expected 1 baseline downlink, got %d", len(side.downlinks))
	}
	base, ok := side.downlinks[0].msg.(protocol.AnswerUpdate)
	if !ok {
		t.Fatalf("baseline is %T, want AnswerUpdate", side.downlinks[0].msg)
	}
	qa.HandleServerMessage(base)
	if got := qa.Answer(); !sameIDs(got.Neighbors, srv.Answer(1).Neighbors) {
		t.Fatalf("baseline not applied: %v", memberIDs(got.Neighbors))
	}

	// Membership change #1: object 4 enters closest. The server sends an
	// AnswerDelta at the end of the round — which we deliberately DROP.
	*now = 2
	srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 2,
	}})
	srv.Finalize(2)
	if len(side.downlinks) != 2 {
		t.Fatalf("expected a delta downlink, got %d total", len(side.downlinks))
	}
	if _, ok := side.downlinks[1].msg.(protocol.AnswerDelta); !ok {
		t.Fatalf("change flowed as %T, want AnswerDelta", side.downlinks[1].msg)
	}

	// Membership change #2: object 5 enters even closer. This delta IS
	// delivered; its sequence number exposes the gap.
	srv.HandleUplink(5, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 5, Pos: geo.Pt(503, 500), At: 2,
	}})
	srv.Finalize(2)
	if len(side.downlinks) != 3 {
		t.Fatalf("expected a second delta, got %d total", len(side.downlinks))
	}
	preUp := len(qside.sent)
	qa.HandleServerMessage(side.downlinks[2].msg)

	// The client must NOT have applied the out-of-sequence delta, and must
	// have sent exactly one answer-resync request.
	if got := qa.Answer(); !sameIDs(got.Neighbors, base.Neighbors) {
		t.Fatalf("gap delta was applied: %v", memberIDs(got.Neighbors))
	}
	if len(qside.sent) != preUp+1 {
		t.Fatalf("gap triggered %d uplinks, want exactly 1", len(qside.sent)-preUp)
	}
	rs, ok := qside.last().(protocol.AnswerResync)
	if !ok {
		t.Fatalf("gap uplinked %T, want AnswerResync", qside.last())
	}
	if rs.Query != 1 {
		t.Fatalf("resync = %+v, want query 1", rs)
	}

	// Server half of the round trip: the resync request yields exactly one
	// full re-baselining AnswerUpdate.
	preDown := len(side.downlinks)
	srv.HandleUplink(500, rs)
	if len(side.downlinks) != preDown+1 {
		t.Fatalf("resync produced %d downlinks, want exactly 1", len(side.downlinks)-preDown)
	}
	repair, ok := side.downlinks[preDown].msg.(protocol.AnswerUpdate)
	if !ok {
		t.Fatalf("repair is %T, want a full AnswerUpdate", side.downlinks[preDown].msg)
	}
	qa.HandleServerMessage(repair)

	// One round trip later the client matches the server exactly.
	want := srv.Answer(1).Neighbors
	got := qa.Answer().Neighbors
	if !sameIDs(got, want) {
		t.Fatalf("client %v != server %v after repair", memberIDs(got), memberIDs(want))
	}
	if got[0].ID != 5 || got[1].ID != 4 {
		t.Fatalf("repaired answer %v, want {5,4}", memberIDs(got))
	}
}

// Only the query's own focal client may force a re-baseline; a resync for
// an unknown query is a no-op.
func TestAnswerResyncRequiresFocalClient(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	pre := len(side.downlinks)
	srv.HandleUplink(666, protocol.AnswerResync{Query: 1})
	if len(side.downlinks) != pre {
		t.Fatal("resync from a non-focal client was honored")
	}
	srv.HandleUplink(500, protocol.AnswerResync{Query: 77})
	if len(side.downlinks) != pre {
		t.Fatal("resync for an unknown query sent something")
	}
	srv.HandleUplink(500, protocol.AnswerResync{Query: 1})
	if len(side.downlinks) != pre+1 {
		t.Fatalf("focal resync produced %d downlinks, want 1", len(side.downlinks)-pre)
	}
	au, ok := side.downlinks[pre].msg.(protocol.AnswerUpdate)
	if !ok {
		t.Fatalf("resync answered with %T", side.downlinks[pre].msg)
	}
	if len(au.Neighbors) != 2 {
		t.Fatalf("resync answer %v", memberIDs(au.Neighbors))
	}
}

// A duplicate registration from the focal client means the client
// restarted without local state: it is re-baselined with a full
// AnswerUpdate. A duplicate from anyone else stays a silent no-op.
func TestDuplicateRegistrationRebaselinesRestartedClient(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	installQuery(t, srv, side, 1)
	pre := len(side.downlinks)

	// Foreign duplicate: ignored, no state perturbed.
	srv.HandleUplink(666, protocol.QueryRegister{Query: 1, K: 9, Pos: geo.Pt(0, 0), At: 1})
	if len(side.downlinks) != pre || srv.QueryCount() != 1 {
		t.Fatal("foreign duplicate registration perturbed the monitor")
	}

	// Focal duplicate: full answer re-baseline, still one monitor.
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
	if srv.QueryCount() != 1 {
		t.Fatal("restart registration duplicated the monitor")
	}
	if len(side.downlinks) != pre+1 {
		t.Fatalf("restart produced %d downlinks, want 1", len(side.downlinks)-pre)
	}
	au, ok := side.downlinks[pre].msg.(protocol.AnswerUpdate)
	if !ok || len(au.Neighbors) != 2 {
		t.Fatalf("restart re-baseline = %T %v", side.downlinks[pre].msg, au.Neighbors)
	}
}

// A probe started by the periodic ResyncTicks timer must end in a full
// AnswerUpdate even when membership did not change — that unconditional
// re-baseline is what heals a silently desynced client.
func TestResyncProbeRebaselinesWithoutMembershipChange(t *testing.T) {
	cfg := baseCfg()
	cfg.ResyncTicks = 5
	srv, side, now := unitServer(t, cfg)
	*now = 1
	installQuery(t, srv, side, 1)
	preDown := len(side.downlinks)

	objects := map[model.ObjectID]geo.Point{
		1: geo.Pt(510, 500), 2: geo.Pt(530, 500), 3: geo.Pt(560, 500),
	}
	*now = 6
	srv.Tick(6)
	if _, ok := side.lastBroadcast().(protocol.ProbeRequest); !ok {
		t.Fatalf("ResyncTicks did not start a probe; last %T", side.lastBroadcast())
	}
	answerProbes(t, srv, side, 6, objects)

	if len(side.downlinks) != preDown+1 {
		t.Fatalf("resync probe produced %d answer downlinks, want 1", len(side.downlinks)-preDown)
	}
	au, ok := side.downlinks[preDown].msg.(protocol.AnswerUpdate)
	if !ok {
		t.Fatalf("resync probe concluded with %T, want a full AnswerUpdate", side.downlinks[preDown].msg)
	}
	if len(au.Neighbors) != 2 || au.Neighbors[0].ID != 1 || au.Neighbors[1].ID != 2 {
		t.Fatalf("resync answer %v, want unchanged {1,2}", memberIDs(au.Neighbors))
	}
}

// Every answer message — full or delta, change-driven or resync — carries
// the next consecutive sequence number.
func TestAnswerSeqStrictlyConsecutive(t *testing.T) {
	cfg := baseCfg()
	cfg.DeltaAnswers = true
	srv, side, now := unitServer(t, cfg)
	*now = 1
	inst := installQuery(t, srv, side, 1)
	srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 1,
	}})
	srv.Finalize(1)
	srv.HandleUplink(4, protocol.ExitReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(900, 900), At: 1,
	}})
	srv.Finalize(1)
	srv.HandleUplink(500, protocol.AnswerResync{Query: 1})

	var seqs []uint32
	for _, d := range side.downlinks {
		switch m := d.msg.(type) {
		case protocol.AnswerUpdate:
			seqs = append(seqs, m.Seq)
		case protocol.AnswerDelta:
			seqs = append(seqs, m.Seq)
		}
	}
	if len(seqs) != 4 {
		t.Fatalf("expected 4 answer messages, got %d (%v)", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("answer seqs %v, want 1,2,3,4", seqs)
		}
	}
}

// Registrations and track corrections carrying non-finite velocities are
// poison for dead reckoning and must be rejected at the wire surface.
func TestNonFiniteVelocityRejected(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	for i, vel := range []geo.Vector{
		geo.Vec(math.NaN(), 0),
		geo.Vec(0, math.Inf(1)),
		geo.Vec(math.Inf(-1), math.NaN()),
	} {
		srv.HandleUplink(500, protocol.QueryRegister{
			Query: 1, K: 2, Pos: geo.Pt(500, 500), Vel: vel, At: 1,
		})
		if srv.QueryCount() != 0 {
			t.Fatalf("case %d: non-finite velocity registration accepted", i)
		}
	}

	installQuery(t, srv, side, 1)
	preB := len(side.broadcasts)
	*now = 2
	srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(510, 500), Vel: geo.Vec(math.Inf(1), 0), At: 2})
	srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(math.NaN(), 500), At: 2})
	srv.Tick(2)
	if len(side.broadcasts) != preB {
		t.Fatal("non-finite QueryMove was applied (triggered a reinstall)")
	}
}

// A report from exactly epochGrace epochs behind the live one is still
// applied; one more epoch behind is discarded. (The far side of the
// window — epochGrace+1 and future epochs — is covered in
// TestStaleEpochReportsIgnoredBeyondGrace.)
func TestEpochGraceBoundary(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)

	// Advance the live epoch by epochGrace refresh reinstalls.
	live := inst.Epoch
	for i := 0; i < epochGrace; i++ {
		*now = model.Tick(2 + i)
		srv.HandleUplink(500, protocol.QueryMove{Query: 1, Pos: geo.Pt(500+float64(i+1), 500), At: *now})
		srv.Tick(*now)
		ninst, ok := side.lastBroadcast().(protocol.MonitorInstall)
		if !ok {
			t.Fatalf("refresh %d did not install; last %T", i, side.lastBroadcast())
		}
		if ninst.Epoch != live+1 {
			t.Fatalf("refresh epoch %d, want %d", ninst.Epoch, live+1)
		}
		live = ninst.Epoch
	}

	// Exactly epochGrace behind: applied.
	srv.HandleUplink(40, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: live - epochGrace, Object: 40, Pos: geo.Pt(500, 501), At: *now,
	}})
	found := false
	for _, n := range srv.Answer(1).Neighbors {
		if n.ID == 40 {
			found = true
		}
	}
	if !found {
		t.Fatalf("report exactly epochGrace behind was discarded: %v",
			memberIDs(srv.Answer(1).Neighbors))
	}

	// epochGrace+1 behind: discarded.
	srv.HandleUplink(41, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: live - epochGrace - 1, Object: 41, Pos: geo.Pt(500, 502), At: *now,
	}})
	for _, n := range srv.Answer(1).Neighbors {
		if n.ID == 41 {
			t.Fatal("report epochGrace+1 behind was applied")
		}
	}
}

// Regression for the slice-aliasing bug: agent answer state must own its
// storage on both the receive path (mutating the delivered slice) and the
// read path (mutating the slice Answer returns).
func TestQueryAgentAnswerOwnsItsStorage(t *testing.T) {
	now := new(model.Tick)
	qa, _ := unitQueryAgent(t, now, 0)

	ns := []model.Neighbor{{ID: 1, Dist: 5}, {ID: 2, Dist: 7}}
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 1, QPos: geo.Pt(500, 500), Neighbors: ns})

	// Mutating the delivered slice (e.g. a reused decode buffer) must not
	// reach into the agent.
	ns[0] = model.Neighbor{ID: 99, Dist: 0}
	if got := qa.Answer(); got.Neighbors[0].ID != 1 {
		t.Fatalf("agent aliases the delivered slice: %v", memberIDs(got.Neighbors))
	}

	// Mutating the returned slice must not corrupt the agent either.
	a := qa.Answer()
	a.Neighbors[0] = model.Neighbor{ID: 42, Dist: 0}
	if got := qa.Answer(); got.Neighbors[0].ID != 1 {
		t.Fatalf("Answer exposes internal storage: %v", memberIDs(got.Neighbors))
	}
}

// Deregister clears all answer and sequencing state: a re-registered
// query starts from a clean slate and cannot report the previous
// registration's neighbors, and accepts the new registration's first
// baseline regardless of its sequence number.
func TestQueryAgentDeregisterClearsAnswerState(t *testing.T) {
	now := new(model.Tick)
	qa, _ := unitQueryAgent(t, now, 0)

	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 7, At: 1, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	if len(qa.Answer().Neighbors) != 1 {
		t.Fatal("baseline not applied")
	}
	qa.Deregister()
	if len(qa.Answer().Neighbors) != 0 {
		t.Fatalf("answer survives deregistration: %v", memberIDs(qa.Answer().Neighbors))
	}
	// A fresh registration's baseline carries a smaller sequence number
	// than the old stream; with cleared state it must still be accepted.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 9, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 3, Dist: 2}}})
	if a := qa.Answer(); len(a.Neighbors) != 1 || a.Neighbors[0].ID != 3 {
		t.Fatalf("post-restart baseline rejected: %v", memberIDs(a.Neighbors))
	}
}

// Stale and duplicated answer messages are ignored silently — they are
// expected under duplication faults and must not trigger resync traffic.
func TestQueryAgentIgnoresStaleAndDuplicateAnswers(t *testing.T) {
	now := new(model.Tick)
	qa, side := unitQueryAgent(t, now, 0)

	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 2, At: 1, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	pre := len(side.sent)

	// Duplicate full update (same seq, different content): ignored.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 2, At: 2, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 9, Dist: 1}}})
	// Stale full update: ignored.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 2, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 8, Dist: 1}}})
	// Duplicate delta (seq already applied): ignored, no resync.
	qa.HandleServerMessage(protocol.AnswerDelta{Query: 1, Seq: 2, At: 2,
		Added: []model.Neighbor{{ID: 7, Dist: 1}}})

	if a := qa.Answer(); len(a.Neighbors) != 1 || a.Neighbors[0].ID != 1 {
		t.Fatalf("stale/duplicate answer applied: %v", memberIDs(a.Neighbors))
	}
	if len(side.sent) != pre {
		t.Fatalf("stale/duplicate answers sent %d uplinks", len(side.sent)-pre)
	}

	// The next in-sequence delta still applies normally.
	qa.HandleServerMessage(protocol.AnswerDelta{Query: 1, Seq: 3, At: 3,
		Added: []model.Neighbor{{ID: 2, Dist: 1}}, Removed: []model.ObjectID{1}})
	if a := qa.Answer(); len(a.Neighbors) != 1 || a.Neighbors[0].ID != 2 {
		t.Fatalf("in-sequence delta rejected: %v", memberIDs(a.Neighbors))
	}
}

// An unanswered resync request is retried once per round trip
// (2·LatencyTicks+1), and retries stop as soon as a full update lands.
func TestQueryAgentResyncRetriesOncePerRoundTrip(t *testing.T) {
	now := new(model.Tick)
	qa, side := unitQueryAgent(t, now, 2) // retry gap = 2*2+1 = 5

	*now = 1
	qa.Tick(1) // registers
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 1, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})

	countResyncs := func() int {
		n := 0
		for _, m := range side.sent {
			if _, ok := m.(protocol.AnswerResync); ok {
				n++
			}
		}
		return n
	}

	// A gap delta at tick 3 triggers the first request.
	*now = 3
	qa.HandleServerMessage(protocol.AnswerDelta{Query: 1, Seq: 3, At: 3,
		Added: []model.Neighbor{{ID: 2, Dist: 1}}})
	if countResyncs() != 1 {
		t.Fatalf("gap sent %d resyncs, want 1", countResyncs())
	}
	// Further gap deltas while a request is pending do not re-send.
	qa.HandleServerMessage(protocol.AnswerDelta{Query: 1, Seq: 4, At: 3,
		Added: []model.Neighbor{{ID: 3, Dist: 1}}})
	if countResyncs() != 1 {
		t.Fatal("pending resync was duplicated by a second gap delta")
	}
	// Ticks within the round trip stay silent; the retry fires at 3+5.
	for tick := model.Tick(4); tick <= 7; tick++ {
		*now = tick
		qa.Tick(tick)
	}
	if countResyncs() != 1 {
		t.Fatalf("retry fired early: %d resyncs", countResyncs())
	}
	*now = 8
	qa.Tick(8)
	if countResyncs() != 2 {
		t.Fatalf("retry did not fire after a full round trip: %d resyncs", countResyncs())
	}

	// A full update clears the pending request; no more retries.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 6, At: 8, QPos: geo.Pt(500, 500),
		Neighbors: []model.Neighbor{{ID: 2, Dist: 1}, {ID: 3, Dist: 2}}})
	for tick := model.Tick(9); tick <= 30; tick++ {
		*now = tick
		qa.Tick(tick)
	}
	if countResyncs() != 2 {
		t.Fatalf("retries continued after repair: %d resyncs", countResyncs())
	}
}

// A delta arriving before any baseline is itself a gap: the client has
// nothing to apply it to and must request a full answer.
func TestQueryAgentDeltaBeforeBaselineTriggersResync(t *testing.T) {
	now := new(model.Tick)
	qa, side := unitQueryAgent(t, now, 0)
	*now = 1
	qa.HandleServerMessage(protocol.AnswerDelta{Query: 1, Seq: 1, At: 1,
		Added: []model.Neighbor{{ID: 2, Dist: 1}}})
	if rs, ok := side.last().(protocol.AnswerResync); !ok || rs.Query != 1 {
		t.Fatalf("baseline-less delta uplinked %+v, want an AnswerResync for query 1", side.last())
	}
	if len(qa.Answer().Neighbors) != 0 {
		t.Fatal("baseline-less delta was applied")
	}
}

// A full AnswerUpdate echoes the server's dead-reckoned query-position
// estimate. The client updates its advertised-track baseline when it
// *sends* a QueryMove, so a lost uplink leaves both sides silently
// diverged until the next natural velocity change; a deviating echo is
// proof of that loss, and the client re-advertises on its next Tick.
func TestStaleQueryTrackEchoTriggersQueryMove(t *testing.T) {
	now := new(model.Tick)
	qa, side := unitQueryAgent(t, now, 0)
	*now = 1
	qa.Tick(1) // registers at (500,500)
	pre := len(side.sent)

	// Matching echo: clean channel, no corrective traffic.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 1,
		QPos: geo.Pt(500, 500), Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	*now = 2
	qa.Tick(2)
	if len(side.sent) != pre {
		t.Fatalf("matching echo produced traffic: %v", side.sent[pre:])
	}

	// Deviating echo: the server is provably tracking a stale position.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 2, At: 2,
		QPos: geo.Pt(490, 500), Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	*now = 3
	qa.Tick(3)
	mv, ok := side.last().(protocol.QueryMove)
	if !ok || len(side.sent) != pre+1 {
		t.Fatalf("stale echo did not trigger exactly one QueryMove: %v", side.sent[pre:])
	}
	if mv.Pos != geo.Pt(500, 500) || mv.At != 3 {
		t.Fatalf("corrective QueryMove carries wrong track: %+v", mv)
	}
	// One correction is enough; nothing further without new evidence.
	for tick := model.Tick(4); tick <= 10; tick++ {
		*now = tick
		qa.Tick(tick)
	}
	if len(side.sent) != pre+1 {
		t.Fatalf("corrective QueryMove repeated: %v", side.sent[pre:])
	}
}

// Echoes predating the latest track advertisement reflect an in-flight
// crossing, not a loss: an answer the server generated before the
// client's QueryMove could possibly have arrived was legitimately
// computed against the previous track and must not trigger a correction.
func TestTrackEchoInFlightCrossingIgnored(t *testing.T) {
	now := new(model.Tick)
	qa, side := unitQueryAgent(t, now, 2)
	*now = 5
	qa.Tick(5) // registers: lastAt = 5
	pre := len(side.sent)

	// Generated at tick 6 < lastAt+latency = 7: the registration may not
	// have reached the server yet; a deviating echo proves nothing.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 1, At: 6,
		QPos: geo.Pt(400, 400), Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	*now = 6
	qa.Tick(6)
	if len(side.sent) != pre {
		t.Fatalf("in-flight crossing triggered a correction: %v", side.sent[pre:])
	}

	// From tick 7 on the advertisement must have landed; a deviating
	// echo now is a loss and is corrected.
	qa.HandleServerMessage(protocol.AnswerUpdate{Query: 1, Seq: 2, At: 7,
		QPos: geo.Pt(400, 400), Neighbors: []model.Neighbor{{ID: 1, Dist: 5}}})
	*now = 7
	qa.Tick(7)
	if _, ok := side.last().(protocol.QueryMove); !ok || len(side.sent) != pre+1 {
		t.Fatalf("post-round-trip stale echo not corrected: %v", side.sent[pre:])
	}
}
