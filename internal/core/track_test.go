package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/simnet"
)

// A published track is never written: when one of the agents sharing a
// record hears the next epoch, it moves to a new record, and the others
// keep reading the old one unchanged.
func TestSharedTrackNewEpoch(t *testing.T) {
	a, b := benchAgent(t, 0), benchAgent(t, 0)
	e1 := benchAgentInstall(1, 1, false)
	a.HandleServerMessage(e1)
	b.HandleServerMessage(e1)
	shared := b.held()[0].tr
	if a.held()[0].tr != shared {
		t.Fatal("two agents hearing one install back to back hold two records")
	}
	e2 := benchAgentInstall(1, 2, false).(protocol.MonitorInstall)
	e2.QueryPos, e2.QueryVel, e2.At = geo.Pt(510, 500), geo.Vector{X: 1}, 1
	a.HandleServerMessage(e2)

	want := track{epoch: 1, adv: line{pos: geo.Pt(500, 500)}, answerRadius: 50, radius: 200}
	if got := b.held()[0].tr; got != shared || *got != want {
		t.Fatalf("B's track after A heard epoch 2: %p %+v, want %p %+v", got, *got, shared, want)
	}
	want = track{epoch: 2, adv: line{geo.Pt(510, 500), geo.Vector{X: 1}, 1}, answerRadius: 50, radius: 200}
	if got := a.held()[0].tr; got == shared || *got != want {
		t.Fatalf("A's track after epoch 2: %p %+v, want a new record %+v", got, *got, want)
	}
}

// Two queries whose installs carry the same track values share one record;
// the query id is the row's, so every report still names its own query.
func TestSharedTrackAcrossQueries(t *testing.T) {
	a, side, pos, now := unitAgent(t)
	inst := install(1, false, geo.Pt(500, 510), 20, 100, 0)
	a.HandleServerMessage(inst)
	inst.Query = 2
	a.HandleServerMessage(inst)
	if held := a.held(); len(held) != 2 || held[0].tr != held[1].tr {
		t.Fatalf("identical installs of queries 1 and 2 hold rows %+v, want one shared record", held)
	}
	for _, c := range []struct {
		to     geo.Point
		report func(protocol.MemberReport) protocol.Message
	}{
		{geo.Pt(500, 480), func(r protocol.MemberReport) protocol.Message {
			return protocol.MoveReport{MemberReport: r, Vel: geo.Vec(0, -20)}
		}},
		{geo.Pt(500, 505), func(r protocol.MemberReport) protocol.Message { return protocol.EnterReport{MemberReport: r} }},
	} {
		side.sent = nil
		*pos = c.to
		*now++
		a.Tick(*now)
		var want []protocol.Message
		for q := model.QueryID(1); q <= 2; q++ {
			want = append(want, c.report(protocol.MemberReport{Query: q, Epoch: 1, Object: 7, Pos: c.to, At: *now}))
		}
		if !reflect.DeepEqual(side.sent, want) {
			t.Fatalf("tick %d sent %+v, want %+v", *now, side.sent, want)
		}
	}
}

// Each network keeps its own slot, so simulations running at once do not
// evict each other's record: the audiences of two networks hear their own
// install in interleaved order, and each audience still holds one record.
func TestSharedTrackPerNetwork(t *testing.T) {
	geom := grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 4, 4)
	var audience [2][3]*ObjectAgent
	for n := range audience {
		net := simnet.New(simnet.Config{Geometry: geom})
		for i := range audience[n] {
			id := model.ObjectID(i + 1)
			a, err := NewObjectAgent(benchCfg(), AgentDeps{
				ID:   id,
				Side: net.ClientSide(id),
				Now:  func() model.Tick { return 1 },
				Pos:  func() geo.Point { return geo.Pt(500, 505) },
				DT:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			audience[n][i] = a
		}
	}
	inst := [2]protocol.MonitorInstall{
		benchAgentInstall(1, 1, false).(protocol.MonitorInstall),
		benchAgentInstall(1, 1, false).(protocol.MonitorInstall),
	}
	inst[1].QueryPos = geo.Pt(510, 500)
	for i := range audience[0] {
		for n := range audience {
			audience[n][i].HandleServerMessage(inst[n])
		}
	}
	for n := range audience {
		first := audience[n][0].held()[0].tr
		for i, a := range audience[n][1:] {
			if got := a.held()[0].tr; got != first {
				t.Fatalf("network %d: recipient %d holds record %p, the first recipient %p", n, i+1, got, first)
			}
		}
	}
}

// Agents on different goroutines publish and read shared records at once:
// 64 agents, each on its own goroutine, hear one script of installs (the
// same boxed messages) and ticks, and each ends with the rows, member
// table and uplinks of the same script replayed on one goroutine.
func TestSharedTrackConcurrent(t *testing.T) {
	const agents = 64
	type step struct {
		msg  protocol.Message // nil: a tick
		tick model.Tick
	}
	rng := rand.New(rand.NewSource(1))
	var script []step
	epoch := make(map[model.QueryID]uint32)
	for now := model.Tick(0); len(script) < 300; {
		if rng.Intn(3) == 0 {
			now++
			script = append(script, step{tick: now})
			continue
		}
		q := model.QueryID(1 + rng.Intn(8))
		epoch[q]++
		rk := float64(10 + rng.Intn(20))
		script = append(script, step{msg: protocol.MonitorInstall{
			Query: q, Epoch: epoch[q], Refresh: epoch[q] > 1,
			QueryPos:     geo.Pt(100+float64(rng.Intn(40)), 100+float64(rng.Intn(40))),
			QueryVel:     geo.Vector{X: float64(rng.Intn(3) - 1)},
			AnswerRadius: rk, Radius: rk + 20, At: now,
		}})
	}
	run := func(g int) (*ObjectAgent, *recClient) {
		var now model.Tick
		side := &recClient{}
		a, err := NewObjectAgent(Config{HorizonTicks: 4, MinProbeRadius: 10, ThetaInside: 2}, AgentDeps{
			ID:   model.ObjectID(g),
			Side: side,
			Now:  func() model.Tick { return now },
			Pos: func() geo.Point {
				return geo.Pt(100+float64(g%8*5)+float64(now%5), 100+float64(g/8*5))
			},
			DT: 1,
		})
		if err != nil {
			panic(err)
		}
		for _, s := range script {
			if s.msg == nil {
				now = s.tick
				a.Tick(now)
			} else {
				a.HandleServerMessage(s.msg)
			}
		}
		return a, side
	}

	got, sent := make([]*ObjectAgent, agents), make([]*recClient, agents)
	var wg sync.WaitGroup
	for g := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], sent[g] = run(g)
		}()
	}
	wg.Wait()

	rows := 0
	for g := range agents {
		want, wantSent := run(g)
		gh, wh := got[g].held(), want.held()
		if len(gh) != len(wh) {
			t.Fatalf("agent %d holds %d rows, serial replay %d", g, len(gh), len(wh))
		}
		for i := range gh {
			if gh[i].query != wh[i].query || gh[i].inside != wh[i].inside || *gh[i].tr != *wh[i].tr {
				t.Fatalf("agent %d row %d: %+v %+v, serial replay %+v %+v", g, i, gh[i], *gh[i].tr, wh[i], *wh[i].tr)
			}
		}
		if gm, wm := got[g].members.rows(), want.members.rows(); (gm == nil) != (wm == nil) || !slices.Equal(gm, wm) {
			t.Fatalf("agent %d member table differs from the serial replay", g)
		}
		if !reflect.DeepEqual(sent[g].sent, wantSent.sent) {
			t.Fatalf("agent %d uplinks differ from the serial replay:\n got  %+v\n want %+v", g, sent[g].sent, wantSent.sent)
		}
		rows += len(gh)
	}
	if rows < agents {
		t.Fatalf("script too tame: %d rows held over %d agents", rows, agents)
	}
}
