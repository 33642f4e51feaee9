package cluster

import (
	"fmt"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
	"dmknn/internal/workload"
)

// proto scales the protocol parameters to the Quick world, like the core
// package's tests do.
func proto() core.Config {
	cfg := core.DefaultConfig()
	cfg.HorizonTicks = 8
	cfg.MinProbeRadius = 100
	return cfg
}

func mustMethod(t *testing.T, nodes int, cfg core.Config, link LinkConfig) *Method {
	t.Helper()
	m, err := NewMethod(nodes, cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPartitionMath(t *testing.T) {
	geom := grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000)), 16, 16)
	for _, nodes := range []int{1, 2, 3, 4, 5, 8, 16} {
		p, err := NewPartition(geom, nodes)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		// The strips tile the world left to right.
		if p.Region(0).Min.X != 0 || p.Region(nodes-1).Max.X != 1000 {
			t.Fatalf("nodes=%d: strips do not span the world", nodes)
		}
		for i := 1; i < nodes; i++ {
			if p.Region(i).Min.X != p.Region(i-1).Max.X {
				t.Fatalf("nodes=%d: gap between strip %d and %d", nodes, i-1, i)
			}
		}
		// Point ownership agrees with cell ownership everywhere.
		for x := 5.0; x < 1000; x += 62.5 {
			pt := geo.Pt(x, 500)
			if got, want := p.NodeOf(pt), p.CellOwner(geom.CellOf(pt)); got != want {
				t.Fatalf("nodes=%d: NodeOf(%v)=%d, CellOwner=%d", nodes, pt, got, want)
			}
		}
		// VisitIntersecting covers exactly the owners of intersecting cells.
		region := geo.Circle{Center: geo.Pt(500, 500), R: 180}
		want := map[int]bool{}
		geom.VisitCellsIntersecting(region, func(c grid.Cell) bool {
			want[p.CellOwner(c)] = true
			return true
		})
		var got []int
		p.VisitIntersecting(region, func(n int) { got = append(got, n) })
		if len(got) != len(want) {
			t.Fatalf("nodes=%d: VisitIntersecting returned %v, want owners %v", nodes, got, want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("nodes=%d: VisitIntersecting out of order: %v", nodes, got)
			}
		}
		for _, n := range got {
			if !want[n] {
				t.Fatalf("nodes=%d: VisitIntersecting visited non-owner %d", nodes, n)
			}
		}
		// A state-only teardown region visits nothing.
		p.VisitIntersecting(geo.Circle{R: -1}, func(int) { t.Fatal("visited for R<0") })
	}
	if _, err := NewPartition(geom, 0); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := NewPartition(geom, 17); err == nil {
		t.Error("more nodes than columns accepted")
	}
}

// The exactness invariant must hold at every node count under the ideal
// network (zero latency, no loss, θ = 0): partitioning the server is
// invisible to the clients.
func TestClusterExactnessInvariant(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cfg := workload.Quick()
			cfg.Ticks = 60
			m := mustMethod(t, nodes, proto(), LinkConfig{})
			res, err := sim.Run(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Audit.Evaluations() == 0 {
				t.Fatal("no audited answers")
			}
			if ex := res.Audit.Exactness(); ex != 1.0 {
				t.Fatalf("exactness = %v (recall mean %v, worst %v) — federation broke the invariant",
					ex, res.Audit.MeanRecall(), res.Audit.WorstRecall())
			}
			if nodes > 1 {
				if res.Extra["link_sent"] == 0 {
					t.Error("multi-node run produced no inter-node traffic")
				}
				s := m.Link().Stats()
				if s.Sent != s.Delivered+s.Dropped {
					t.Errorf("link conservation violated: %+v", s)
				}
			} else if res.Extra["link_sent"] != 0 {
				t.Errorf("single-node run used the link: %v messages", res.Extra["link_sent"])
			}
		})
	}
}

// With one node the federation is wire-identical to the plain DKNN
// method: same per-direction traffic, no link usage, no handoffs.
func TestSingleNodeWireIdentity(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	single, err := core.New(proto())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Run(cfg, single)
	if err != nil {
		t.Fatal(err)
	}
	m := mustMethod(t, 1, proto(), LinkConfig{})
	r2, err := sim.Run(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range metrics.Directions() {
		if r1.Traffic.Sent(d) != r2.Traffic.Sent(d) {
			t.Errorf("%v sent differs: single %d, cluster(1) %d",
				d, r1.Traffic.Sent(d), r2.Traffic.Sent(d))
		}
		if r1.Traffic.SentBytes(d) != r2.Traffic.SentBytes(d) {
			t.Errorf("%v bytes differ: single %d, cluster(1) %d",
				d, r1.Traffic.SentBytes(d), r2.Traffic.SentBytes(d))
		}
	}
	if s := m.Link().Stats(); s.Sent != 0 {
		t.Errorf("single-node cluster sent %d link messages", s.Sent)
	}
	if st := m.Cluster().Stats(); st.ObjectHandoffs != 0 || st.QueryHandoffs != 0 {
		t.Errorf("single-node cluster recorded handoffs: %+v", st)
	}
}

// The multi-node wire, pinned: per-direction radio traffic, link traffic
// and handoff counts of the static federation over an ideal link, recorded
// at the commit before the two federation state machines were merged.
// These configurations repeat bit for bit at any GOMAXPROCS. Lossy-link
// and adaptive runs do not and so cannot be pinned this way: the parallel
// node ticks decide the link's send order and with it the loss draws, and
// the balancer reads wall-clock busy time.
func TestFederationWireDigest(t *testing.T) {
	want := []struct {
		nodes                                             int
		seed                                              int64
		upMsgs, upBytes, dnMsgs, dnBytes, bcMsgs, bcBytes uint64
		linkSent, linkBytes, objHandoffs, qryHandoffs     float64
	}{
		{2, 1, 15539, 575023, 995, 94525, 8946, 599382, 1086, 71209, 217, 7},
		{2, 2, 15773, 583649, 1130, 107350, 8863, 593821, 1268, 81158, 262, 6},
		{2, 3, 15472, 572544, 944, 89680, 8594, 575798, 1022, 62561, 192, 4},
		{2, 4, 15877, 587521, 1242, 117990, 9442, 632614, 1297, 83451, 267, 7},
		{3, 1, 15482, 572914, 1000, 95000, 8886, 595362, 2077, 132214, 397, 11},
		{3, 2, 15721, 581725, 1139, 108205, 8854, 593218, 2374, 151840, 415, 12},
		{3, 3, 15472, 572544, 949, 90155, 8596, 575932, 2228, 137172, 353, 9},
		{3, 4, 15877, 587521, 1253, 119035, 9442, 632614, 2158, 137866, 406, 11},
		{4, 1, 15539, 575023, 1014, 96330, 8946, 599382, 3639, 222261, 549, 16},
		{4, 2, 15773, 583649, 1130, 107350, 8863, 593821, 3489, 211065, 538, 12},
		{4, 3, 15495, 573395, 957, 90915, 8594, 575798, 2674, 160351, 435, 8},
		{4, 4, 15873, 587373, 1249, 118655, 9442, 632614, 2694, 168982, 531, 12},
	}
	for _, w := range want {
		cfg := workload.Quick()
		cfg.Ticks = 120
		cfg.Seed = w.seed
		res, err := sim.Run(cfg, mustMethod(t, w.nodes, proto(), LinkConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Traffic
		got := w
		got.upMsgs, got.upBytes = tr.Sent(metrics.Uplink), tr.SentBytes(metrics.Uplink)
		got.dnMsgs, got.dnBytes = tr.Sent(metrics.Downlink), tr.SentBytes(metrics.Downlink)
		got.bcMsgs, got.bcBytes = tr.Sent(metrics.Broadcast), tr.SentBytes(metrics.Broadcast)
		got.linkSent, got.linkBytes = res.Extra["link_sent"], res.Extra["link_bytes"]
		got.objHandoffs, got.qryHandoffs = res.Extra["object_handoffs"], res.Extra["query_handoffs"]
		if got != w {
			t.Errorf("nodes=%d seed=%d: wire moved\n got %+v\nwant %+v", w.nodes, w.seed, got, w)
		}
		if d := res.Extra["relay_drops"]; d != 0 {
			t.Errorf("nodes=%d seed=%d: %v relay drops, want 0", w.nodes, w.seed, d)
		}
		if ex := res.Audit.Exactness(); ex != 1.0 {
			t.Errorf("nodes=%d seed=%d: exactness = %v", w.nodes, w.seed, ex)
		}
	}
}

// Tracing is a pure tap on the federation too: with a flight recorder
// attached and histogram collection on, a traced single-server run and a
// traced one-node cluster run both stay wire-identical to the untraced
// single-server run — and the recorder actually saw the protocol, with
// the cluster's events stamped by node.
func TestSingleNodeWireIdentityWithTracing(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60

	baseline, err := core.New(proto())
	if err != nil {
		t.Fatal(err)
	}
	r0, err := sim.Run(cfg, baseline)
	if err != nil {
		t.Fatal(err)
	}

	singleRec := obs.NewRecorder(0)
	tcfg := cfg
	tcfg.Trace = singleRec
	tcfg.Observe = true
	single, err := core.New(proto())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Run(tcfg, single)
	if err != nil {
		t.Fatal(err)
	}

	clusterRec := obs.NewRecorder(0)
	ccfg := cfg
	ccfg.Trace = clusterRec
	ccfg.Observe = true
	m := mustMethod(t, 1, proto(), LinkConfig{})
	r2, err := sim.Run(ccfg, m)
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range metrics.Directions() {
		if r0.Traffic.Sent(d) != r1.Traffic.Sent(d) || r0.Traffic.SentBytes(d) != r1.Traffic.SentBytes(d) {
			t.Errorf("%v: tracing perturbed the single server (sent %d→%d)",
				d, r0.Traffic.Sent(d), r1.Traffic.Sent(d))
		}
		if r0.Traffic.Sent(d) != r2.Traffic.Sent(d) || r0.Traffic.SentBytes(d) != r2.Traffic.SentBytes(d) {
			t.Errorf("%v: tracing perturbed the cluster (sent %d→%d)",
				d, r0.Traffic.Sent(d), r2.Traffic.Sent(d))
		}
	}
	if singleRec.Total() == 0 || clusterRec.Total() == 0 {
		t.Fatalf("recorders empty: single %d, cluster %d", singleRec.Total(), clusterRec.Total())
	}
	if r1.Staleness == nil || r1.Staleness.Count() == 0 {
		t.Error("observed run collected no staleness samples")
	}
	// Single-server events carry no node; the cluster's server events are
	// stamped with the (only) node id.
	for _, ev := range singleRec.Events() {
		if ev.Node >= 0 {
			t.Fatalf("single-server event carries node id: %v", ev)
		}
	}
	if clusterRec.Count(obs.EvProbe) == 0 {
		t.Error("cluster trace recorded no probes")
	}
	// The ring retains only the tail of the run, but the node's server
	// keeps emitting (installs, answers) throughout — some retained event
	// must carry the node stamp.
	stamped := false
	for _, ev := range clusterRec.Events() {
		if ev.Node == 0 {
			stamped = true
			break
		}
	}
	if !stamped {
		t.Error("no node-stamped event in the cluster trace")
	}
}

// Boundary crossings actually exercise both handoff mechanisms on the
// Quick workload, and a migrated query is homed at exactly one node.
func TestClusterHandoffsOccur(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 120
	m := mustMethod(t, 2, proto(), LinkConfig{})
	res, err := sim.Run(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Cluster().Stats()
	if st.ObjectHandoffs == 0 {
		t.Error("no object handoffs in 120 ticks of waypoint motion")
	}
	if st.QueryHandoffs == 0 {
		t.Error("no query handoffs in 120 ticks of waypoint motion")
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Errorf("exactness = %v under handoff churn", ex)
	}
	cl := m.Cluster()
	for i := range cfg.NumQueries {
		q := model.QueryID(i + 1)
		homes := 0
		for n := 0; n < 2; n++ {
			if cl.Node(n).HasQuery(q) {
				homes++
			}
		}
		if homes != 1 {
			t.Errorf("query %d homed at %d nodes, want exactly 1", q, homes)
		}
	}
}

// A relayed report is not evidence of where its sender is now: with link
// latency, a NodeRelay that was in flight while the sender crossed a
// strip boundary reaches the new home carrying the old position. It must
// not hand the client straight back.
func TestStaleRelayDoesNotRehome(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	part, err := NewPartition(grid.NewGeometry(world, 10, 10), 2)
	if err != nil {
		t.Fatal(err)
	}
	now := func() model.Tick { return 1 }
	link := NewMemLink(LinkConfig{}, now)
	cl, err := New(part, proto().WithWorldDefault(world), Deps{
		Link:  link,
		Radio: func(int) transport.ServerSide { return &recordSide{} },
		Now:   now, DT: 1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	handoffs := 0
	link.OnDeliver(func(from, to int, m protocol.Message) {
		if _, ok := m.(protocol.ObjectHandoff); ok {
			handoffs++
		}
		cl.HandleLink(from, to, m)
	})

	const obj = model.ObjectID(7)
	inA, inB := geo.Pt(450, 500), geo.Pt(550, 500)
	cl.SeedHome(obj, inA)
	// The client's own report from node 1's strip hands it over.
	cl.HandleUplink(obj, protocol.LocationReport{Object: obj, Pos: inB, At: 1})
	link.Flush()
	if cl.HomeOf(obj) != 1 || handoffs != 1 {
		t.Fatalf("setup: home %d after %d handoffs, want node 1 after 1", cl.HomeOf(obj), handoffs)
	}
	// A report node 0 relayed before the crossing arrives after it.
	cl.HandleLink(0, 1, protocol.NodeRelay{Origin: obj, Hops: 1, Inner: protocol.EnterReport{
		MemberReport: protocol.MemberReport{Query: 1, Object: obj, Pos: inA, At: 1},
	}})
	link.Flush()
	if home := cl.HomeOf(obj); home != 1 {
		t.Errorf("stale relay re-homed the client to node %d", home)
	}
	if handoffs != 1 {
		t.Errorf("stale relay sent %d more ObjectHandoff(s)", handoffs-1)
	}
}

// Satellite: removing a client on its home node tears the state down
// federation-wide — no monitor state, relay routes, or awareness entries
// referencing its queries survive on any node, and the aware objects'
// client-side monitors are cancelled.
func TestClientGonePurgesFederation(t *testing.T) {
	cfg := workload.Quick()
	cfg.NumQueries = 1
	m := mustMethod(t, 2, proto(), LinkConfig{})
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cl := m.Cluster()
	q := model.QueryID(1)
	addr := model.ObjectID(cfg.NumObjects + 1)
	if !cl.Node(0).HasQuery(q) && !cl.Node(1).HasQuery(q) {
		t.Fatal("query never registered")
	}
	// The Quick world is 1 km wide with ~300 m monitoring regions, so a
	// cross-boundary install is all but guaranteed; require it so the
	// teardown below actually has remote state to purge.
	spread := false
	for _, n := range cl.nodes {
		if len(n.remote) > 0 || len(n.spread[q]) > 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("monitor never crossed the boundary; purge test is vacuous")
	}

	cl.HandleClientGone(addr)
	// Let the cancel broadcasts and link teardown drain.
	for i := 0; i < 3; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range cl.nodes {
		if n.server.HasQuery(q) {
			t.Errorf("node %d still has the monitor", i)
		}
		if _, routed := n.remote[q]; routed || n.local[q] {
			t.Errorf("node %d still routes query %d", i, q)
		}
		if len(n.spread[q]) > 0 {
			t.Errorf("node %d still tracks spread for query %d", i, q)
		}
		if len(n.awareByQ[q]) > 0 {
			t.Errorf("node %d still tracks aware objects for query %d", i, q)
		}
	}
	for i, a := range m.Agents() {
		if a.MonitorCount() != 0 {
			t.Errorf("object %d still holds a monitor after federation-wide teardown", i+1)
		}
	}
}

// A lossy link may not destroy a migrating monitor: the handoff retries
// until acked, and the answers stay exact once the loss clears.
func TestQueryHandoffSurvivesLinkLoss(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60
	cfg.DisableAudit = true
	pc := proto()
	pc.ResyncTicks = 12
	m := mustMethod(t, 2, pc, LinkConfig{Loss: 0.5, Seed: 3})
	eng, err := sim.NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if m.Cluster().Stats().QueryHandoffs == 0 {
		t.Skip("no migration attempted under this seed; nothing to stress")
	}
	// Every query must still be homed somewhere (a lost handoff is
	// retried, never abandoned), exactly once.
	for i := range cfg.NumQueries {
		q := model.QueryID(i + 1)
		homes := 0
		for n := 0; n < 2; n++ {
			if m.Cluster().Node(n).HasQuery(q) {
				homes++
			}
		}
		if homes != 1 {
			t.Errorf("query %d homed at %d nodes under link loss", q, homes)
		}
	}
	m.Link().SetLoss(0)
	for i := 0; i < 40; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Link().Stats()
	if s.Sent != s.Delivered+s.Dropped+uint64(m.Link().PendingCount()) {
		t.Errorf("link conservation violated: %+v pending %d", s, m.Link().PendingCount())
	}
	if s.Dropped == 0 {
		t.Error("loss phase dropped nothing; test exercised no fault")
	}
}
