package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// influenceProto is the cluster test protocol with frontier-threshold
// suppression switched on.
func influenceProto() core.Config {
	cfg := proto()
	cfg.Influence = true
	return cfg
}

// The federation invariant under influence mode: exactness 1.0 at every
// node count on the ideal network, with real query handoffs migrating
// live frontier state between strips. If a migrated threshold were
// dropped or corrupted, the suppressed objects' silence would strand
// stale members in the new home's answers and break exactness.
func TestInfluenceClusterExactness(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Ticks = 120
			m := mustMethod(t, nodes, influenceProto(), LinkConfig{})
			res, err := sim.Run(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			if ex := res.Audit.Exactness(); ex != 1.0 {
				t.Fatalf("exactness = %v under influence mode with %d nodes", ex, nodes)
			}
			if nodes > 1 {
				if m.Cluster().Stats().QueryHandoffs == 0 {
					t.Error("no query handoffs in 120 ticks — the migration path was never exercised")
				}
				// The handoffs moved real thresholds: some home must now
				// hold a monitor with a live frontier.
				live := 0
				for i := range cfg.NumQueries {
					q := model.QueryID(i + 1)
					for n := 0; n < nodes; n++ {
						if st, ok := m.Cluster().Node(n).ExportMonitor(q); ok && st.Frontier > 0 {
							live++
						}
					}
				}
				if live == 0 {
					t.Error("no monitor holds a live frontier after the run")
				}
			}
		})
	}
}

// recordSide / agentSide are minimal transport fakes for driving core
// servers and object agents directly, with every hop explicit.
type recordSide struct {
	broadcasts []struct {
		region geo.Circle
		msg    protocol.Message
	}
	downlinks []protocol.Message
}

func (r *recordSide) Broadcast(region geo.Circle, m protocol.Message) {
	r.broadcasts = append(r.broadcasts, struct {
		region geo.Circle
		msg    protocol.Message
	}{region, m})
}
func (r *recordSide) Downlink(to model.ObjectID, m protocol.Message) {
	r.downlinks = append(r.downlinks, m)
}

type agentSide struct{ ups []protocol.Message }

func (a *agentSide) Uplink(m protocol.Message) { a.ups = append(a.ups, m) }

// The mid-suppression handoff property: a monitor exported from one
// strip's server, carried through the wire codec, and imported at
// another strip's server neither loses nor duplicates the suppressed
// objects' next report. The agents never learn about the migration —
// their thresholds keep suppressing across it, the snapshot's epoch and
// frontier let the new home accept the eventual report first try, and
// no spurious correction report is ever solicited.
func TestInfluenceHandoffMidSuppression(t *testing.T) {
	cfg := core.Config{HorizonTicks: 10, MinProbeRadius: 100, AnswerSlack: 2, Influence: true}
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	now := model.Tick(1)
	nowFn := func() model.Tick { return now }

	newServer := func(side *recordSide) *core.Server {
		srv, err := core.NewServer(cfg.WithWorldDefault(world), core.ServerDeps{
			Side: side, Now: nowFn, DT: 1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	sideA, sideB := &recordSide{}, &recordSide{}
	srvA, srvB := newServer(sideA), newServer(sideB)

	// Three data objects around the focal point at (500,500); k=2.
	pos := map[model.ObjectID]geo.Point{
		1: geo.Pt(510, 500), 2: geo.Pt(530, 500), 3: geo.Pt(560, 500),
	}
	agents := map[model.ObjectID]*core.ObjectAgent{}
	ups := map[model.ObjectID]*agentSide{}
	for id := model.ObjectID(1); id <= 3; id++ {
		id := id
		side := &agentSide{}
		ups[id] = side
		a, err := core.NewObjectAgent(cfg, core.AgentDeps{
			ID: id, Side: side, Now: nowFn,
			Pos: func() geo.Point { return pos[id] }, DT: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[id] = a
	}

	// flush pumps server broadcasts to the agents (cell-granular
	// broadcast approximated by region containment) and agent uplinks
	// back to the server until the exchange quiesces.
	seenB := map[*recordSide]int{}
	seenU := map[model.ObjectID]int{}
	totalUplinks := 0
	flush := func(side *recordSide, srv *core.Server) {
		for {
			progress := false
			for ; seenB[side] < len(side.broadcasts); seenB[side]++ {
				b := side.broadcasts[seenB[side]]
				if b.region.R < 0 {
					continue // state-only teardown, no radio traffic
				}
				for id, a := range agents {
					if b.region.Contains(pos[id]) {
						a.HandleServerMessage(b.msg)
					}
				}
				progress = true
			}
			for id, side := range ups {
				for ; seenU[id] < len(side.ups); seenU[id]++ {
					srv.HandleUplink(id, side.ups[seenU[id]])
					totalUplinks++
				}
			}
			if !progress && !srv.Finalize(now) {
				return
			}
		}
	}

	// Establish the monitor at server A.
	srvA.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: now})
	srvA.Tick(now)
	flush(sideA, srvA)
	var inst protocol.InfluenceInstall
	found := false
	for _, b := range sideA.broadcasts {
		if v, ok := b.msg.(protocol.InfluenceInstall); ok {
			inst, found = v, true
		}
	}
	if !found {
		t.Fatal("influence-mode server installed without an InfluenceInstall")
	}
	if inst.Frontier <= 0 {
		t.Fatalf("install advertises no frontier: %+v", inst)
	}

	// Suppressed drift at A: motion small enough to stay on-side and
	// within the advertised slack must produce zero uplinks.
	now = 2
	for id := range pos {
		pos[id] = geo.Pt(pos[id].X+1, pos[id].Y)
	}
	before := totalUplinks
	srvA.Tick(now)
	for _, a := range agents {
		a.Tick(now)
	}
	flush(sideA, srvA)
	if totalUplinks != before {
		t.Fatalf("suppressed phase sent %d uplinks", totalUplinks-before)
	}

	// Handoff mid-suppression: export at A, cross the wire codec, import
	// at B. The snapshot must be codec-transparent, frontier included.
	st, ok := srvA.ExportMonitor(1)
	if !ok {
		t.Fatal("export refused")
	}
	if st.Frontier != inst.Frontier || st.Band != inst.Band {
		t.Fatalf("exported frontier %v/%v, advertised %v/%v",
			st.Frontier, st.Band, inst.Frontier, inst.Band)
	}
	buf := protocol.Encode(nil, st)
	m, err := protocol.Decode(buf)
	if err != nil {
		t.Fatalf("handoff decode: %v", err)
	}
	st2 := m.(protocol.QueryHandoff)
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("handoff not codec-transparent:\n got %+v\nwant %+v", st2, st)
	}
	srvB.ImportMonitor(st2, now)
	if !srvB.HasQuery(1) {
		t.Fatal("import did not register the query at B")
	}

	// Still suppressed after the handoff: the agents heard nothing, the
	// migration must not solicit a duplicate of their withheld report.
	now = 3
	for id := range pos {
		pos[id] = geo.Pt(pos[id].X+1, pos[id].Y)
	}
	before = totalUplinks
	srvB.Tick(now)
	for _, a := range agents {
		a.Tick(now)
	}
	flush(sideB, srvB)
	if totalUplinks != before {
		t.Fatalf("post-handoff suppressed phase sent %d uplinks", totalUplinks-before)
	}

	// The next real report: object 3 dives inside the frontier. Exactly
	// one MoveReport must reach B — not lost (the migrated epoch and
	// frontier make it apply first try, flipping the answer) and not
	// duplicated.
	now = 4
	pos[3] = geo.Pt(505, 500)
	before = totalUplinks
	srvB.Tick(now)
	for _, a := range agents {
		a.Tick(now)
	}
	flush(sideB, srvB)
	moved := ups[3].ups
	if len(moved) == 0 {
		t.Fatal("frontier crossing produced no report — the next report was lost")
	}
	if _, ok := moved[len(moved)-1].(protocol.MoveReport); !ok {
		t.Fatalf("frontier crossing sent %T, want MoveReport", moved[len(moved)-1])
	}
	if n := totalUplinks - before; n != 1 {
		t.Fatalf("frontier crossing sent %d uplinks, want exactly 1", n)
	}
	ans := srvB.Answer(1)
	want := map[model.ObjectID]bool{1: true, 3: true}
	if len(ans.Neighbors) != 2 || !want[ans.Neighbors[0].ID] || !want[ans.Neighbors[1].ID] {
		t.Fatalf("post-handoff answer %v, want objects 1 and 3", ans.Neighbors)
	}
}
