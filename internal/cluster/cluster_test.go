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
// included. Only the downlink columns moved, and fell on every row, when
// answers began to leave once per query per tick from Finalize instead of
// once per applied report. When members began to report tracks rather
// than points, the uplink, link and object-handoff columns moved on every
// row. On the ideal-link rows exactness stayed 1, the broadcast columns
// held, and the downlink columns held except on three rows (2 nodes seed
// 3, 3 nodes seed 4, 4 nodes seed 3), which each send one answer fewer:
// on the tick query 1 migrates, the exporting node used to send the
// answer its members' reports had just changed and the importer then
// re-baselined the client; now those members are silent on their tracks,
// the exporter has not re-ranked the answer before it exports it, and
// the importer's re-baseline alone carries the change. On the latency-1
// rows exactness rose on all twelve: a report older than the track on
// record no longer overwrites it. On the 20 %-loss rows it fell on ten of
// twelve (mean 0.955 to 0.927): a lost report used to heal at the
// member's next report, one tick later, and a member on its track now
// stays silent until it leaves the track, re-affirms at a refresh install
// a horizon later, or a resync probe rebuilds the table. Every row runs
// twice, once at
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
		{2, 1, 3926, 191118, 497, 47215, 7336, 491512, 683, 67104, 221, 7},
		{2, 2, 4087, 197987, 531, 50445, 7324, 490708, 794, 72973, 259, 6},
		{2, 3, 3748, 182660, 449, 42655, 7141, 478447, 603, 51361, 194, 4},
		{2, 4, 4354, 210354, 574, 54530, 7312, 489904, 831, 76559, 267, 7},
		{3, 1, 3901, 190033, 501, 47595, 7278, 487626, 1253, 117510, 398, 11},
		{3, 2, 4087, 197987, 537, 51015, 7334, 491378, 1339, 130738, 419, 12},
		{3, 3, 3745, 182517, 455, 43225, 7142, 478514, 1215, 111047, 353, 9},
		{3, 4, 4355, 210407, 577, 54815, 7312, 489904, 1253, 117917, 406, 11},
		{4, 1, 3926, 191118, 506, 48070, 7336, 491512, 1859, 170611, 549, 16},
		{4, 2, 4087, 197987, 537, 51015, 7324, 490708, 1877, 162755, 544, 12},
		{4, 3, 3750, 182734, 453, 43035, 7137, 478179, 1491, 123042, 441, 8},
		{4, 4, 4352, 210280, 579, 55005, 7312, 489904, 1706, 149006, 536, 12},
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
		{2, 1, 1, 0, fedDigest{7120, 340832, 497, 47215, 8942, 596618, 1926, 148846, 272, 7, 0, 0.925, 0}},
		{2, 2, 1, 0, fedDigest{25382, 1199982, 529, 50255, 16234, 1087678, 7465, 498579, 382, 6, 0, 0.9177083333333333, 0}},
		{2, 3, 1, 0, fedDigest{13916, 661644, 448, 42560, 12259, 817089, 2458, 167576, 356, 4, 0, 0.9395833333333333, 0}},
		{2, 4, 1, 0, fedDigest{14770, 701682, 572, 54340, 11784, 789528, 5032, 355201, 376, 7, 0, 0.9708333333333333, 0}},
		{3, 1, 1, 0, fedDigest{15939, 756351, 499, 47405, 12728, 849032, 7973, 550510, 666, 12, 0, 0.8979166666666667, 0}},
		{3, 2, 1, 0, fedDigest{26730, 1261234, 532, 50540, 18050, 1209350, 13643, 960162, 683, 12, 0, 0.9208333333333333, 0}},
		{3, 3, 1, 0, fedDigest{18213, 863721, 454, 43130, 13771, 918393, 8509, 585026, 647, 9, 0, 0.9583333333333334, 0}},
		{3, 4, 1, 0, fedDigest{19754, 937786, 574, 54530, 12973, 869191, 9075, 636131, 660, 11, 0, 0.9885416666666667, 0}},
		{4, 1, 1, 0, fedDigest{9322, 446282, 503, 47785, 9944, 662504, 4678, 348396, 901, 16, 0, 0.8989583333333333, 0}},
		{4, 2, 1, 0, fedDigest{24540, 1158348, 525, 49875, 17440, 1168480, 13348, 923107, 903, 12, 0, 0.9197916666666667, 0}},
		{4, 3, 1, 0, fedDigest{14557, 691809, 451, 42845, 12610, 840606, 8393, 559964, 889, 8, 0, 0.9354166666666667, 0}},
		{4, 4, 1, 0, fedDigest{14361, 682181, 570, 54150, 11534, 772778, 7718, 548236, 812, 12, 0, 0.978125, 0}},
		{2, 1, 0, 0.2, fedDigest{12852, 618292, 496, 47120, 11166, 748122, 2445, 186063, 408, 7, 3, 0.9541666666666667, 0}},
		{2, 2, 0, 0.2, fedDigest{16840, 799784, 527, 50065, 13019, 872273, 3082, 235946, 377, 6, 2, 0.934375, 0}},
		{2, 3, 0, 0.2, fedDigest{11944, 574488, 453, 43035, 10509, 704103, 2631, 184049, 382, 4, 2, 0.975, 0}},
		{2, 4, 0, 0.2, fedDigest{8162, 390418, 571, 54245, 8524, 571108, 2011, 165261, 377, 7, 0, 0.9541666666666667, 0}},
		{3, 1, 0, 0.2, fedDigest{11917, 569761, 506, 48070, 12042, 806814, 4165, 336729, 647, 11, 9, 0.928125, 0}},
		{3, 2, 0, 0.2, fedDigest{13861, 659577, 541, 51395, 13776, 922992, 4649, 410794, 635, 12, 3, 0.8729166666666667, 0}},
		{3, 3, 0, 0.2, fedDigest{12532, 597716, 452, 42940, 15014, 1005938, 4002, 341000, 610, 9, 3, 0.95, 0}},
		{3, 4, 0, 0.2, fedDigest{21131, 1000191, 573, 54435, 19621, 1314607, 6025, 473603, 664, 11, 2, 0.9333333333333333, 0}},
		{4, 1, 0, 0.2, fedDigest{14967, 711931, 500, 47500, 14335, 960445, 6351, 505412, 964, 16, 6, 0.8760416666666667, 0}},
		{4, 2, 0, 0.2, fedDigest{16925, 800881, 538, 51110, 17825, 1194275, 7221, 523967, 908, 12, 5, 0.890625, 0}},
		{4, 3, 0, 0.2, fedDigest{11636, 556468, 450, 42750, 13538, 907046, 5148, 367527, 840, 8, 2, 0.94375, 0}},
		{4, 4, 0, 0.2, fedDigest{14573, 692665, 579, 55005, 13995, 937665, 6140, 488326, 867, 12, 0, 0.9072916666666667, 0}},
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
		{2, 1, fedDigest{7614, 362294, 542, 51490, 11861, 794687, 1642, 167261, 346, 14, 0, 1, 11}},
		{2, 2, fedDigest{7005, 334361, 412, 39140, 12388, 829996, 2548, 196817, 257, 10, 0, 1, 13}},
		{2, 3, fedDigest{6921, 333605, 332, 31540, 13976, 936392, 1935, 326454, 479, 22, 0, 1, 13}},
		{2, 4, fedDigest{8317, 391097, 375, 35625, 15257, 1022219, 4440, 419239, 331, 27, 0, 1, 13}},
		{3, 1, fedDigest{7954, 373754, 551, 52345, 12003, 798247, 3562, 323418, 589, 22, 0, 1, 13}},
		{3, 2, fedDigest{7170, 342162, 424, 40280, 12555, 841185, 3857, 368545, 542, 22, 0, 1, 15}},
		{3, 3, fedDigest{6726, 324118, 331, 31445, 13933, 933511, 2806, 348556, 623, 21, 0, 1, 15}},
		{3, 4, fedDigest{8311, 391115, 384, 36480, 15166, 1016122, 5721, 564359, 453, 36, 0, 1, 12}},
		{4, 1, fedDigest{8001, 375813, 556, 52820, 12031, 800123, 3735, 364729, 798, 27, 0, 1, 14}},
		{4, 2, fedDigest{7101, 339177, 427, 40565, 12456, 834552, 3145, 332697, 526, 25, 0, 1, 15}},
		{4, 3, fedDigest{6903, 332619, 338, 32110, 13866, 929022, 4702, 519437, 831, 29, 0, 1, 14}},
		{4, 4, fedDigest{8436, 396268, 382, 36290, 15439, 1034413, 6832, 600463, 758, 36, 0, 1, 14}},
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
