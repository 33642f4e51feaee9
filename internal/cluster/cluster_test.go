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

// Range monitoring is as exact in a federation as on one server, and its
// monitors cross strips: every run hands at least one query to another
// node, so the exactness covers a range monitor's handoff too.
func TestFederatedRangeExact(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("nodes=%d/seed%d", nodes, seed), func(t *testing.T) {
				cfg := workload.Quick()
				cfg.K = 0
				cfg.QueryRange = 120
				cfg.Seed = seed
				res, err := sim.Run(cfg, mustMethod(t, nodes, proto(), LinkConfig{}))
				if err != nil {
					t.Fatal(err)
				}
				if res.Audit.Evaluations() == 0 {
					t.Fatal("no audited answers")
				}
				if ex := res.Audit.Exactness(); ex != 1.0 {
					t.Errorf("exactness = %v (worst recall %v)", ex, res.Audit.WorstRecall())
				}
				if res.Extra["query_handoffs"] == 0 {
					t.Error("no query crossed a strip boundary")
				}
			})
		}
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
// a horizon later, or a resync probe rebuilds the table. All 48 rows
// moved when the monitoring slack began to follow the advertised query
// track: a slow query closes on its unaware objects at Vobj + |v_q|
// rather than Vobj + Vqry, so its horizon is longer and its reinstalls
// rarer. On the ideal-link rows exactness stayed 1, the uplink and
// downlink columns held, and the broadcast column fell 18–26 %. On the
// adaptive rows exactness stayed 1 and the broadcast column fell 12–15 %;
// the balancer counts uplinks, so on five rows its moves shifted, and
// with them the query handoffs and the downlink re-baselines they send.
// On the latency-1 rows no exactness fell and three rose. Only the
// adaptive rows moved, each with exactness 1, when the cluster's central
// balancer gave way to the members' own coordinator protocol: the
// coordinator decides on the NodeLoad samples of the previous tick and
// makes no move until every peer has acked the last one, so the moves
// shift (163 to 165 over the twelve rows), and every non-coordinator
// sends one NodeLoad per tick. All 48 rows moved when a member on its
// track stopped sending the exit the server computes from that track. On
// the ideal-link rows exactness stayed 1, the broadcast columns held, the
// uplink fell 26 % over the twelve rows, and the link and object-handoff
// columns fell with it: a member's uplinks are what the federation reads
// its position from (uplinkPos), so with fewer exits it notices a
// strip crossing later. The downlink held except on two rows (3 and 4
// nodes, seed 4), which each send one answer fewer on the tick a query
// migrates: the exit that changed the answer used to be ingested before
// the export, which sent the answer, and is now filed in the Tick after
// it, so the importer's re-baseline alone carries the change. On the
// latency-1 rows the uplink fell 82 % and the broadcasts 43 %, and mean
// exactness rose from 0.9425 to 0.9489: at the parent the horizon
// refreshes of some queries (query 2 on 2 nodes, seed 2) advertised
// circles of 413 to 989 m, each shrunk by a buffer-overflow refresh two
// ticks later at 237 to 300 m and each pair drawing a wave of enters and
// exits, while with crossings filed at the tick the track makes them the
// same query's installs stay between 220 and 304 m. On the 20 %-loss rows
// mean exactness went from 0.9164 to 0.9168 (five rows up, seven down):
// an object that finds an epoch missing at a refresh install states its
// side outright, which heals the crossings the server judged against a
// circle the object never held. On the adaptive rows exactness stayed 1
// and the uplink fell 32 %; the balancer counts uplinks, so its column
// moves shifted (165 to 163 over the twelve rows), and with them the
// handoffs and the broadcasts. All 48 rows moved when a kNN member's
// side got one rule on both ends: a member reports its track where it
// used to send an exit, a MoveReport 16 B longer, which the server places
// outside r_b, so the uplink-byte and link-byte columns moved on every
// row. On the ideal, 20 %-loss and adaptive rows exactness, the downlink
// and broadcast columns held; the uplink count rose by one on the seed-4
// ideal rows, and by two on the seed-3 adaptive rows and on one lossy row
// (3 nodes, seed 4): a member re-affirming from just outside r_b on a
// track still inside it now reports a Move and leaves, and enters again
// a tick later. On the latency-1 rows the uplink fell on eleven of twelve
// (37 640 to 37 422) and the broadcasts on four: an install that reaches
// an object late is judged against the query track dead-reckoned to the
// tick it arrives, not the install-time centre. Their mean exactness
// held at 0.94887 (4 nodes seed 1 up one step, seed 3 down one). All 48
// rows moved again when r_b and the side rule began to measure by one
// distance, geo.Point.Dist: a refresh's (k+m)-th member stays inside the
// r_b it sized instead of being filed outside at its own install, so the
// uplink fell on 44 rows and rose on 4 (one latency-1, three 20 %-loss).
// Every ideal and adaptive row stayed exact, and every ideal row kept its
// downlink and broadcast counts. Mean exactness moved from 0.94887 to
// 0.95260 on the latency-1 rows and from 0.91684 to 0.91120 on the
// 20 %-loss rows (0.91464 to 0.91340 over nodes 2-4 and seeds 1-12). All
// 48 rows moved again when every track report began to carry the velocity
// of the object's one fix: an Enter no longer reports a track at rest that
// the object corrects with a MoveReport a tick later. The uplink fell 28 %
// on the ideal rows (35 698 to 25 703), 27 % on the latency-1 rows, 23 %
// on the 20 %-loss rows and 26 % on the adaptive rows, and the link and
// object-handoff columns fell with it. Every ideal and adaptive row stayed
// exact; the ideal rows kept their broadcast counts, and all but four
// their downlink counts, which fell by one answer (2 nodes seed 1, 3
// nodes seed 4) or two (3 nodes seed 2, 4 nodes seed 1). Mean exactness moved from 0.9526 to
// 0.9548 on the latency-1 rows and from 0.9112 to 0.8336 on the 20 %-loss
// rows: the Move that followed each velocity-less Enter was also that
// Enter's retransmission, and a lost Enter now heals only at a
// re-affirmation, a deviation from the track or a resync probe
// (TestLossyFederationFloors holds both means). Only the link-byte column
// moved on all 48 rows, and the broadcast-byte column on seven, when the
// fields no receiver read left the wire: the routed envelopes' map version
// (8 B each, 10 B with node-forward's home), object-handoff's kinematics
// (40 B), node-load's tick (8 B) and probe-request's tick (8 B). The
// uplink-byte and link-byte columns moved on seven rows, six latency-1
// and one adaptive, when probe-reply lost its tick (8 B a reply); no other
// row has a probe reply in its measured ticks. Every
// row runs twice, once at GOMAXPROCS 1, and the two digests must be identical. A latent or lossy
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
		{2, 1, 2109, 111697, 496, 47120, 5892, 394764, 550, 44119, 207, 7},
		{2, 2, 2132, 112948, 531, 50445, 5398, 361666, 643, 46074, 242, 6},
		{2, 3, 2137, 113181, 449, 42655, 5588, 374396, 499, 32401, 191, 4},
		{2, 4, 2196, 116316, 574, 54530, 5987, 401129, 692, 51522, 253, 7},
		{3, 1, 2097, 111061, 501, 47595, 5836, 391012, 1025, 78294, 365, 11},
		{3, 2, 2123, 112471, 535, 50825, 5413, 362671, 1060, 81381, 388, 12},
		{3, 3, 2135, 113075, 455, 43225, 5587, 374329, 952, 70309, 327, 9},
		{3, 4, 2196, 116316, 575, 54625, 5987, 401129, 1030, 78092, 386, 11},
		{4, 1, 2109, 111697, 504, 47880, 5892, 394764, 1452, 108868, 508, 16},
		{4, 2, 2132, 112948, 537, 51015, 5398, 361666, 1442, 99936, 511, 12},
		{4, 3, 2140, 113340, 453, 43035, 5578, 373726, 1228, 79123, 415, 8},
		{4, 4, 2197, 116369, 578, 54910, 5988, 401196, 1396, 96336, 507, 12},
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
		{2, 1, 1, 0, fedDigest{2226, 114226, 498, 47310, 7539, 502053, 607, 52147, 210, 7, 0, 0.9395833333333333, 0}},
		{2, 2, 1, 0, fedDigest{2107, 111623, 526, 49970, 7155, 479385, 699, 53445, 248, 6, 0, 0.9354166666666667, 0}},
		{2, 3, 1, 0, fedDigest{2352, 118744, 447, 42465, 7207, 478551, 595, 41076, 191, 4, 0, 0.9666666666666667, 0}},
		{2, 4, 1, 0, fedDigest{2232, 118224, 569, 54055, 7964, 533588, 761, 60604, 262, 7, 0, 0.9760416666666667, 0}},
		{3, 1, 1, 0, fedDigest{2332, 118236, 498, 47310, 7511, 498613, 1231, 97936, 378, 12, 0, 0.9395833333333333, 0}},
		{3, 2, 1, 0, fedDigest{2156, 114220, 527, 50065, 7043, 471881, 1118, 95012, 401, 12, 0, 0.934375, 0}},
		{3, 3, 1, 0, fedDigest{2371, 119823, 449, 42655, 7203, 478283, 1145, 87392, 342, 9, 0, 0.9552083333333333, 0}},
		{3, 4, 1, 0, fedDigest{2224, 117800, 573, 54435, 7920, 530640, 1130, 95561, 399, 11, 0, 0.9958333333333333, 0}},
		{4, 1, 1, 0, fedDigest{2368, 120112, 500, 47500, 7687, 510405, 1626, 128075, 504, 16, 0, 0.93125, 0}},
		{4, 2, 1, 0, fedDigest{2185, 115757, 526, 49970, 7165, 480055, 1550, 116640, 519, 12, 0, 0.9375, 0}},
		{4, 3, 1, 0, fedDigest{2366, 119534, 450, 42750, 7136, 473794, 1451, 95167, 427, 8, 0, 0.9625, 0}},
		{4, 4, 1, 0, fedDigest{2281, 120821, 567, 53865, 8133, 544911, 1514, 112051, 524, 12, 0, 0.9833333333333333, 0}},
		{2, 1, 0, 0.2, fedDigest{2285, 121025, 494, 46930, 5913, 396171, 657, 70902, 223, 7, 3, 0.8833333333333333, 0}},
		{2, 2, 0, 0.2, fedDigest{2373, 125721, 514, 48830, 5178, 346926, 755, 64130, 273, 6, 1, 0.8895833333333333, 0}},
		{2, 3, 0, 0.2, fedDigest{2278, 120654, 445, 42275, 5494, 368098, 609, 45752, 216, 4, 0, 0.9427083333333334, 0}},
		{2, 4, 0, 0.2, fedDigest{2489, 131845, 566, 53770, 5869, 393223, 892, 92231, 283, 7, 1, 0.9, 0}},
		{3, 1, 0, 0.2, fedDigest{2659, 140847, 492, 46740, 5569, 373123, 1464, 140788, 490, 11, 2, 0.7697916666666667, 0}},
		{3, 2, 0, 0.2, fedDigest{2575, 136427, 535, 50825, 5069, 339623, 1358, 126107, 448, 12, 0, 0.8635416666666667, 0}},
		{3, 3, 0, 0.2, fedDigest{2484, 131572, 453, 43035, 5224, 350008, 1176, 128624, 394, 9, 0, 0.85625, 0}},
		{3, 4, 0, 0.2, fedDigest{2618, 138682, 568, 53960, 5612, 376004, 1335, 96663, 454, 11, 0, 0.8552083333333333, 0}},
		{4, 1, 0, 0.2, fedDigest{2684, 142164, 488, 46360, 5436, 364212, 1960, 177833, 657, 16, 8, 0.7677083333333333, 0}},
		{4, 2, 0, 0.2, fedDigest{2627, 139183, 535, 50825, 5104, 341968, 1744, 132028, 607, 12, 2, 0.7145833333333333, 0}},
		{4, 3, 0, 0.2, fedDigest{2592, 137296, 449, 42655, 5232, 350544, 1550, 110467, 518, 8, 1, 0.7958333333333333, 0}},
		{4, 4, 0, 0.2, fedDigest{2593, 137357, 567, 53865, 5640, 377880, 1650, 119778, 546, 12, 0, 0.7645833333333333, 0}},
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
		{2, 1, fedDigest{3620, 191780, 544, 51680, 10445, 699815, 1184, 105520, 304, 16, 0, 1, 13}},
		{2, 2, fedDigest{3547, 187935, 412, 39140, 10862, 727754, 1647, 116143, 254, 10, 0, 1, 12}},
		{2, 3, fedDigest{3571, 189175, 329, 31255, 11939, 799913, 1325, 195179, 373, 20, 0, 1, 11}},
		{2, 4, fedDigest{4170, 220922, 368, 34960, 13200, 884400, 2418, 210902, 259, 21, 0, 1, 13}},
		{3, 1, fedDigest{3621, 191833, 553, 52535, 10389, 696063, 2125, 203937, 585, 28, 0, 1, 15}},
		{3, 2, fedDigest{3572, 189260, 417, 39615, 10919, 731573, 2570, 182695, 374, 16, 0, 1, 13}},
		{3, 3, fedDigest{3571, 189175, 332, 31540, 11939, 799913, 2413, 244683, 620, 25, 0, 1, 15}},
		{3, 4, fedDigest{4149, 219809, 375, 35625, 13191, 883797, 3447, 308355, 429, 30, 0, 1, 14}},
		{4, 1, fedDigest{3760, 195096, 553, 52535, 10327, 688883, 3264, 245988, 690, 26, 0, 1, 15}},
		{4, 2, fedDigest{3547, 187935, 419, 39805, 10862, 727754, 2676, 212374, 465, 20, 0, 1, 15}},
		{4, 3, fedDigest{3546, 187850, 345, 32775, 11931, 799377, 3192, 336689, 642, 36, 0, 1, 13}},
		{4, 4, fedDigest{4166, 220710, 383, 36385, 13202, 884534, 4385, 381843, 673, 38, 0, 1, 14}},
	}
	for _, w := range adaptive {
		checkFederationDigest(t, fedRun{nodes: w.nodes, seed: w.seed, adaptive: true}, w.want)
	}
}

// The faulty rows of TestFederationWireDigest may be re-pinned when the
// protocol changes, but their exactness may not slide with them unseen:
// the mean over the twelve latency-1 rows and over the twelve 20 %-loss
// rows (nodes 2-4, seeds 1-4) each stays above a floor set just under its
// value when an Enter began to carry the object's own velocity (0.9548 and
// 0.8336; 0.9526 and 0.9112 before, when the Move that followed each Enter
// a tick later also retransmitted it).
func TestLossyFederationFloors(t *testing.T) {
	for _, c := range []struct {
		name  string
		link  func(seed int64) LinkConfig
		floor float64
	}{
		{"latency-1", func(seed int64) LinkConfig { return LinkConfig{LatencyTicks: 1, Seed: seed} }, 0.95},
		{"loss-20%", func(seed int64) LinkConfig { return LinkConfig{Loss: 0.2, Seed: seed} }, 0.83},
	} {
		sum, n := 0.0, 0
		for nodes := 2; nodes <= 4; nodes++ {
			for seed := int64(1); seed <= 4; seed++ {
				sum += federationDigest(t, fedRun{nodes: nodes, seed: seed, link: c.link(seed)}).exactness
				n++
			}
		}
		mean := sum / float64(n)
		t.Logf("%s: mean exactness %.4f over %d rows", c.name, mean, n)
		if mean < c.floor {
			t.Errorf("%s: mean exactness %.4f over %d rows, below the floor %.2f", c.name, mean, n, c.floor)
		}
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
		if _, routed := n.remote[q]; routed || n.server.HasQuery(q) {
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
