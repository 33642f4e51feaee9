package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"dmknn/internal/balance"
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

// The multi-node wire, pinned: per-direction radio traffic, link traffic,
// handoff and relay-drop counts, and audited exactness of the static
// federation. The ideal-link rows were recorded at the commit before the
// two federation state machines were merged; the latency-1 and 20 %-loss
// rows since the cluster ticks its nodes in node order on one goroutine,
// which makes the link's send order — and so which message each loss draw
// lands on — a function of the seed. The broadcast and link columns were
// re-pinned when installs began to cover the advertised frame instead of
// the stale install centre; on the ideal-link rows every other column
// held. Only the link-byte column moved when query-handoff lost its two
// unused 8-byte threshold fields: 16 B per handoff sent, retries
// included. Every row runs twice, once at
// GOMAXPROCS 1, and the two digests must be identical. A latent or lossy
// link answers late and can strand relays, so those rows pin their
// exactness and relay drops rather than assert 1 and 0. The adaptive rows
// run the balancer under hotspot skew: it counts uplinks rather than
// reading the clock, so its column moves repeat with everything else.
func TestFederationWireDigest(t *testing.T) {
	want := []struct {
		nodes                                             int
		seed                                              int64
		upMsgs, upBytes, dnMsgs, dnBytes, bcMsgs, bcBytes uint64
		linkSent, linkBytes, objHandoffs, qryHandoffs     float64
	}{
		{2, 1, 15539, 575023, 995, 94525, 7336, 491512, 1080, 70541, 217, 7},
		{2, 2, 15773, 583649, 1130, 107350, 7324, 490708, 1257, 79988, 262, 6},
		{2, 3, 15472, 572544, 944, 89680, 7141, 478447, 1011, 61407, 192, 4},
		{2, 4, 15877, 587521, 1242, 117990, 7312, 489904, 1289, 82579, 267, 7},
		{3, 1, 15482, 572914, 1000, 95000, 7278, 487626, 2063, 130592, 397, 11},
		{3, 2, 15721, 581725, 1139, 108205, 7334, 491378, 2357, 150010, 415, 12},
		{3, 3, 15472, 572544, 949, 90155, 7142, 478514, 2218, 136080, 353, 9},
		{3, 4, 15877, 587521, 1253, 119035, 7312, 489904, 2138, 135738, 406, 11},
		{4, 1, 15539, 575023, 1014, 96330, 7336, 491512, 3646, 221558, 549, 16},
		{4, 2, 15773, 583649, 1130, 107350, 7324, 490708, 3481, 209439, 538, 12},
		{4, 3, 15495, 573395, 957, 90915, 7137, 478179, 2673, 159314, 435, 8},
		{4, 4, 15873, 587373, 1249, 118655, 7312, 489904, 2684, 167250, 531, 12},
	}
	for _, w := range want {
		checkFederationDigest(t, fedRun{nodes: w.nodes, seed: w.seed}, fedDigest{
			w.upMsgs, w.upBytes, w.dnMsgs, w.dnBytes, w.bcMsgs, w.bcBytes,
			w.linkSent, w.linkBytes, w.objHandoffs, w.qryHandoffs, 0, 1, 0,
		})
	}
	faulty := []struct {
		nodes   int
		seed    int64
		latency int
		loss    float64
		want    fedDigest
	}{
		{2, 1, 1, 0, fedDigest{25808, 954976, 1019, 96805, 11000, 734504, 3338, 190381, 325, 7, 0, 0.8979166666666667, 0}},
		{2, 2, 1, 0, fedDigest{47992, 1775752, 1147, 108965, 16533, 1107711, 11963, 640917, 385, 6, 0, 0.8708333333333333, 0}},
		{2, 3, 1, 0, fedDigest{32147, 1189519, 970, 92150, 13046, 869818, 3830, 210035, 364, 4, 0, 0.9270833333333334, 0}},
		{2, 4, 1, 0, fedDigest{32383, 1198243, 1278, 121410, 12446, 833882, 7086, 390661, 380, 7, 0, 0.93125, 0}},
		{3, 1, 1, 0, fedDigest{35084, 1298188, 1063, 100985, 13786, 919918, 12828, 697474, 683, 12, 0, 0.8489583333333334, 0}},
		{3, 2, 1, 0, fedDigest{47864, 1771016, 1198, 113810, 18185, 1218395, 20052, 1100646, 684, 12, 0, 0.8072916666666666, 0}},
		{3, 3, 1, 0, fedDigest{31934, 1181638, 989, 93955, 12893, 859567, 10088, 557753, 623, 9, 0, 0.8927083333333333, 0}},
		{3, 4, 1, 0, fedDigest{37408, 1384168, 1306, 124070, 13127, 879509, 12190, 671417, 631, 11, 0, 0.9177083333333333, 0}},
		{4, 1, 1, 0, fedDigest{28359, 1049371, 1066, 101270, 11713, 781027, 9863, 563336, 957, 16, 0, 0.7864583333333334, 0}},
		{4, 2, 1, 0, fedDigest{48981, 1812345, 1172, 111340, 17976, 1204392, 22900, 1237895, 931, 12, 0, 0.790625, 0}},
		{4, 3, 1, 0, fedDigest{32807, 1213939, 990, 94050, 13205, 880471, 11822, 640340, 895, 8, 0, 0.8885416666666667, 0}},
		{4, 4, 1, 0, fedDigest{31580, 1168532, 1287, 122265, 12336, 826512, 10236, 570878, 819, 12, 0, 0.8895833333333333, 0}},
		{2, 1, 0, 0.2, fedDigest{34884, 1290788, 994, 94430, 12574, 842458, 2789, 171777, 414, 7, 0, 0.9833333333333333, 0}},
		{2, 2, 0, 0.2, fedDigest{27615, 1021803, 1122, 106590, 10516, 704572, 2237, 135211, 336, 6, 8, 0.953125, 0}},
		{2, 3, 0, 0.2, fedDigest{21615, 799835, 953, 90535, 9132, 611844, 2156, 127180, 311, 4, 0, 0.9958333333333333, 0}},
		{2, 4, 0, 0.2, fedDigest{23507, 869831, 1242, 117990, 10483, 702361, 2595, 160441, 365, 7, 15, 0.9854166666666667, 0}},
		{3, 1, 0, 0.2, fedDigest{26385, 976325, 1005, 95475, 13249, 887683, 6013, 360223, 656, 11, 13, 0.9083333333333333, 0}},
		{3, 2, 0, 0.2, fedDigest{26668, 986764, 1141, 108395, 13014, 871938, 5927, 346145, 611, 12, 12, 0.9645833333333333, 0}},
		{3, 3, 0, 0.2, fedDigest{22532, 833764, 966, 91770, 10613, 711071, 4577, 299721, 519, 9, 33, 0.9625, 0}},
		{3, 4, 0, 0.2, fedDigest{31983, 1183443, 1234, 117230, 14590, 977530, 7892, 449352, 638, 11, 1, 0.91875, 0}},
		{4, 1, 0, 0.2, fedDigest{29294, 1083958, 1016, 96520, 15559, 1042453, 8513, 535774, 893, 16, 45, 0.921875, 0}},
		{4, 2, 0, 0.2, fedDigest{30591, 1131915, 1159, 110105, 14990, 1004330, 9759, 562485, 871, 12, 24, 0.9583333333333334, 0}},
		{4, 3, 0, 0.2, fedDigest{21593, 799021, 966, 91770, 9388, 628996, 4715, 267918, 619, 8, 0, 0.9572916666666667, 0}},
		{4, 4, 0, 0.2, fedDigest{24786, 917154, 1262, 119890, 11285, 756095, 5819, 349727, 716, 12, 6, 0.95, 0}},
	}
	for _, w := range faulty {
		link := LinkConfig{LatencyTicks: w.latency, Loss: w.loss, Seed: w.seed}
		checkFederationDigest(t, fedRun{nodes: w.nodes, seed: w.seed, link: link}, w.want)
	}
	adaptive := []struct {
		nodes int
		seed  int64
		want  fedDigest
	}{
		{2, 1, fedDigest{20882, 772714, 1229, 116755, 11852, 794084, 2955, 186995, 438, 14, 0, 1, 11}},
		{2, 2, fedDigest{20585, 761701, 890, 84550, 12442, 833614, 6034, 353522, 271, 22, 0, 1, 12}},
		{2, 3, fedDigest{20438, 756294, 671, 63745, 13869, 929223, 4240, 316158, 485, 22, 0, 1, 12}},
		{2, 4, fedDigest{24219, 896191, 764, 72580, 15505, 1038835, 9297, 530982, 296, 19, 0, 1, 9}},
		{3, 1, fedDigest{21141, 782297, 1238, 117610, 12003, 798247, 6291, 390478, 601, 24, 0, 1, 11}},
		{3, 2, fedDigest{20719, 766659, 880, 83600, 12511, 838237, 8748, 511676, 410, 24, 0, 1, 12}},
		{3, 3, fedDigest{20271, 750115, 686, 65170, 13933, 933511, 6964, 489695, 688, 32, 0, 1, 14}},
		{3, 4, fedDigest{24051, 889975, 777, 73815, 15322, 1026574, 13438, 789124, 532, 35, 0, 1, 14}},
		{4, 1, fedDigest{20748, 767756, 1231, 116945, 11605, 777535, 7378, 473890, 884, 30, 0, 1, 15}},
		{4, 2, fedDigest{20501, 758593, 880, 83600, 12222, 818874, 9594, 572223, 553, 27, 0, 1, 15}},
		{4, 3, fedDigest{20473, 757589, 677, 64315, 13850, 927950, 10433, 693960, 881, 39, 0, 1, 14}},
		{4, 4, fedDigest{24074, 890826, 784, 74480, 15289, 1024363, 14760, 879238, 765, 38, 0, 1, 13}},
	}
	for _, w := range adaptive {
		checkFederationDigest(t, fedRun{nodes: w.nodes, seed: w.seed, adaptive: true}, w.want)
	}
}

// fedRun is one pinned federation configuration: the static partition
// on the uniform Quick workload, or the balancer on under hotspot skew.
type fedRun struct {
	nodes    int
	seed     int64
	link     LinkConfig
	adaptive bool
}

// fedDigest is one federation run's wire and outcome summary.
type fedDigest struct {
	upMsgs, upBytes, dnMsgs, dnBytes, bcMsgs, bcBytes uint64
	linkSent, linkBytes, objHandoffs, qryHandoffs     float64
	relayDrops, exactness, columnMoves                float64
}

func federationDigest(t *testing.T, run fedRun) fedDigest {
	t.Helper()
	cfg := workload.Quick()
	var m *Method
	var err error
	if run.adaptive {
		if cfg, err = workload.WithMobility(cfg, workload.ModelHotspot); err != nil {
			t.Fatal(err)
		}
		m, err = NewAdaptiveMethod(run.nodes, proto(), run.link, balance.Config{IntervalTicks: 8, MinGain: 0.02})
	} else {
		m, err = NewMethod(run.nodes, proto(), run.link)
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ticks = 120
	cfg.Seed = run.seed
	res, err := sim.Run(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traffic
	return fedDigest{
		upMsgs: tr.Sent(metrics.Uplink), upBytes: tr.SentBytes(metrics.Uplink),
		dnMsgs: tr.Sent(metrics.Downlink), dnBytes: tr.SentBytes(metrics.Downlink),
		bcMsgs: tr.Sent(metrics.Broadcast), bcBytes: tr.SentBytes(metrics.Broadcast),
		linkSent: res.Extra["link_sent"], linkBytes: res.Extra["link_bytes"],
		objHandoffs: res.Extra["object_handoffs"], qryHandoffs: res.Extra["query_handoffs"],
		relayDrops: res.Extra["relay_drops"], exactness: res.Audit.Exactness(),
		columnMoves: res.Extra["column_moves"],
	}
}

// checkFederationDigest runs one configuration at the current GOMAXPROCS
// and again at 1, and requires both runs to equal want.
func checkFederationDigest(t *testing.T, run fedRun, want fedDigest) {
	t.Helper()
	got := federationDigest(t, run)
	prev := runtime.GOMAXPROCS(1)
	again := federationDigest(t, run)
	runtime.GOMAXPROCS(prev)
	if got != again {
		t.Errorf("%+v: run does not repeat\n GOMAXPROCS=%d %+v\n GOMAXPROCS=1 %+v", run, prev, got, again)
	}
	if got != want {
		t.Errorf("%+v: wire moved\n got %+v\nwant %+v", run, got, want)
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
