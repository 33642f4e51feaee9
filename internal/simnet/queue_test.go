package simnet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dmknn/internal/container"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// queueSlices lists every slice the delivery queue retains: the ring's
// buckets, then the scratch, then the spare.
func queueSlices(n *Network) [][]queued {
	return append(slices.Clone(n.buckets), n.dueScratch, n.spare)
}

// retainedCap is the queue's total retained capacity, in entries.
func retainedCap(n *Network) int {
	total := 0
	for _, s := range queueSlices(n) {
		total += cap(s)
	}
	return total
}

// sameArray reports whether two queue slices share a backing array. Queue
// slices are only ever truncated to [:0] or appended to, so sharing an
// array means sharing its first slot.
func sameArray(a, b []queued) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// checkQueueClean demands that, between flushes, every slot the queue
// retains beyond a slice's length is the zero queued and every free
// broadcast record is the zero bcast — no msg or filter reference
// survives delivery — and that the scratch and the spare are empty.
func checkQueueClean(t *testing.T, n *Network) {
	t.Helper()
	if len(n.dueScratch) != 0 || len(n.spare) != 0 {
		t.Fatalf("scratch holds %d and spare %d entries between flushes", len(n.dueScratch), len(n.spare))
	}
	for i, s := range queueSlices(n) {
		for j, q := range s[len(s):cap(s)] {
			if !reflect.ValueOf(q).IsZero() {
				t.Fatalf("slice %d of %d (scratch and spare last): slot %d of cap %d still holds %+v",
					i, len(n.buckets)+2, len(s)+j, cap(s), q)
			}
		}
	}
	for i, b := range n.bfree {
		if !reflect.ValueOf(*b).IsZero() {
			t.Fatalf("free broadcast record %d of %d still holds %+v", i, len(n.bfree), *b)
		}
	}
}

// chattyServer answers every uplink from inside the round that delivers
// it, with every kind of entry the queue can hold: a downlink and three
// filtered broadcasts. Before sending it checks that
// the bucket its replies land in is not the slice the round is iterating.
type chattyServer struct {
	t     *testing.T
	n     *Network
	side  transport.ServerSide
	froms []model.ObjectID
}

func (s *chattyServer) HandleUplink(from model.ObjectID, _ protocol.Message) {
	n := s.n
	if sameArray(n.buckets[int(n.now)&(len(n.buckets)-1)], n.dueScratch) {
		s.t.Fatal("the bucket handlers enqueue into is the slice the round is delivering")
	}
	s.froms = append(s.froms, from)
	region := geo.Circle{Center: geo.Pt(500, 500), R: 300}
	tag := protocol.AnswerUpdate{Query: model.QueryID(from)}
	s.side.Downlink(from, tag)
	for range 3 {
		s.side.Broadcast(region, tag)
	}
}

// replyOnce uplinks once, on the first downlink addressed to its client.
type replyOnce struct {
	id   model.ObjectID
	side transport.ClientSide
	done bool
}

func (c *replyOnce) HandleServerMessage(m protocol.Message) {
	if a, ok := m.(protocol.AnswerUpdate); ok && a.Query == model.QueryID(c.id) && !c.done {
		c.done = true
		c.side.Uplink(protocol.QueryDeregister{Query: 2})
	}
}

// Delivered entries must not outlive their delivery in the queue's
// retained arrays, on either path a round can take its entries by.
func TestQueueHoldsNoDeliveredEntry(t *testing.T) {
	// The swap path, with handlers enqueueing into the bucket the round was
	// taken from: zero latency, a four-round cascade (uplinks; downlinks,
	// broadcasts; the clients' second uplinks; their answers),
	// every broadcast carrying a filter.
	t.Run("swap", func(t *testing.T) {
		n := New(testConfig())
		n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return geo.Pt(500, 500), true })
		srv := &chattyServer{t: t, n: n}
		srv.side = n.RestrictedServerSide(func(c grid.Cell) bool { return true })
		n.AttachServer(srv)
		const clients = 40
		for id := model.ObjectID(1); id <= clients; id++ {
			n.AttachClient(id, &replyOnce{id: id, side: n.ClientSide(id)})
		}
		var want []model.ObjectID
		for tick := model.Tick(1); tick <= 3; tick++ {
			n.SetNow(tick)
			for id := model.ObjectID(1); id <= clients; id++ {
				n.ClientSide(id).Uplink(protocol.QueryDeregister{Query: 1})
				want = append(want, id)
			}
			if tick == 1 {
				// The first answers trigger each client's one reply, in the
				// order the answers were sent.
				for id := model.ObjectID(1); id <= clients; id++ {
					want = append(want, id)
				}
			}
			n.Flush()
			checkQueueClean(t, n)
		}
		if !slices.Equal(srv.froms, want) {
			t.Fatalf("uplinks arrived out of FIFO order:\n got %v\nwant %v", srv.froms, want)
		}
		if n.PendingCount() != 0 {
			t.Fatalf("%d entries left pending", n.PendingCount())
		}
		// 160 uplinks, each answered by a downlink and three broadcasts
		// heard by all 40 clients.
		c := n.Counters()
		if got := c.Delivered(metrics.Downlink); got != 160 {
			t.Errorf("delivered %d downlinks, want 160", got)
		}
		if got := c.Delivered(metrics.Broadcast); got != 160*3*clients {
			t.Errorf("delivered %d broadcast receptions, want %d", got, 160*3*clients)
		}
	})

	// The copy path: latency 2 plus jitter and duplication spread entries
	// over several future buckets, and a clock jump makes all of them due in
	// one round — delivered in due-tick order, FIFO within a tick.
	t.Run("multi-bucket", func(t *testing.T) {
		cfg := testConfig()
		cfg.LatencyTicks = 2
		cfg.Seed = 11
		cfg.Faults = FaultConfig{JitterTicks: 2, DuplicateProb: 0.3}
		n := New(cfg)
		n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) { return geo.Pt(500, 500), true })
		rec := &recorder{}
		n.AttachServer(rec)
		n.AttachClient(1, rec)
		script := rand.New(rand.NewSource(11))
		region := geo.Circle{Center: geo.Pt(500, 500), R: 100}
		var tag protocol.Message = protocol.MonitorCancel{Query: 1}
		for tick := model.Tick(1); tick <= 30; tick++ {
			n.SetNow(tick)
			for i := script.Intn(20); i > 0; i-- {
				switch script.Intn(4) {
				case 0:
					n.ClientSide(1).Uplink(tag)
				case 1:
					n.ServerSide().Downlink(1, tag)
				case 2, 3:
					n.ServerSide().Broadcast(region, tag)
				}
			}
			n.Flush()
			checkQueueClean(t, n)
		}
		// Three ticks of numbered uplinks with no flush in between, then a
		// jump past every due tick.
		seq := 0
		for tick := model.Tick(31); tick <= 33; tick++ {
			n.SetNow(tick)
			for i := 0; i < 25; i++ {
				n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: model.QueryID(seq)})
				seq++
			}
		}
		n.SetNow(40)
		var want []protocol.Message
		dueBuckets := 0
		for tick := n.bucketLow; tick < n.bucketHigh; tick++ {
			if b := n.buckets[int(tick)&(len(n.buckets)-1)]; len(b) > 0 {
				dueBuckets++
				for _, q := range b {
					if q.dir == metrics.Uplink {
						want = append(want, q.msg)
					}
				}
			}
		}
		if dueBuckets < 2 {
			t.Fatalf("%d buckets due at the jump; the scenario exists to make several due at once", dueBuckets)
		}
		before := len(rec.uplinks)
		n.Flush()
		checkQueueClean(t, n)
		if got := rec.uplinks[before:]; !slices.Equal(got, want) {
			t.Fatalf("jump delivered %d uplinks out of due-tick/FIFO order:\n got %v\nwant %v", len(got), got, want)
		}
		if n.PendingCount() != 0 {
			t.Fatalf("%d entries left pending", n.PendingCount())
		}
		c := n.Counters()
		for _, dir := range []metrics.Direction{metrics.Uplink, metrics.Downlink} {
			if sent, out := c.Sent(dir)+n.Duplicated(dir), c.Delivered(dir)+c.Dropped(dir); sent != out {
				t.Errorf("dir %v: sent+duplicated = %d, delivered+dropped = %d", dir, sent, out)
			}
		}
	})
}

// The queue's retained capacity must follow its traffic: a one-off burst
// is given back within two trim windows, and neither steady traffic nor
// a burst that recurs within a window pays for that with reallocation.
func TestQueueCapacityFollowsTraffic(t *testing.T) {
	var msg protocol.Message = protocol.QueryDeregister{Query: 1}
	// world returns a network with the given latency and a function that
	// advances the clock one tick, sends k uplinks and flushes, checking that
	// the flush delivers what was sent latency ticks earlier.
	world := func(latency int) (*Network, func(k int)) {
		cfg := testConfig()
		cfg.LatencyTicks = latency
		n := New(cfg)
		n.AttachServer(transport.ServerHandlerFunc(func(model.ObjectID, protocol.Message) {}))
		up := n.ClientSide(1)
		tick := 0
		var sent [8]int // by tick, modulo more than any latency used here
		return n, func(k int) {
			tick++
			n.SetNow(model.Tick(tick))
			for i := 0; i < k; i++ {
				up.Uplink(msg)
			}
			sent[tick%len(sent)] = k
			want := 0
			if tick > latency {
				want = sent[(tick-latency)%len(sent)]
			}
			if got := n.Flush(); got != want {
				t.Fatalf("tick %d: flush delivered %d, want %d", tick, got, want)
			}
		}
	}

	// The burst lands at every phase of the arrays' rotation (each round
	// swaps the due bucket's array into the scratch, a quiescent flush parks
	// the drained one as the spare, and the next push into an idle slot takes
	// it, with a period of latency + 2 ticks): under latency the burst-sized
	// array holds pending entries at the end of some flushes, and at one
	// phase or another that flush closes a trim window, so the trim must
	// shrink a slice that is not empty too.
	for _, c := range []struct{ latency, phases int }{{0, 1}, {2, 9}} {
		for phase := 0; phase < c.phases; phase++ {
			t.Run(fmt.Sprintf("burst/latency=%d/phase=%d", c.latency, phase), func(t *testing.T) {
				const burst, steady = 100000, 1000
				n, flushOf := world(c.latency)
				for i := 0; i < phase; i++ {
					flushOf(steady)
				}
				flushOf(burst)
				if got := retainedCap(n); got < burst {
					t.Fatalf("retained capacity %d right after a burst of %d", got, burst)
				}
				// The bound trimQueue enforces: no slice above container.Slack
				// times the steady round, over the ring, the scratch and the
				// spare, of which at most ring + 1 hold an array.
				bound := (len(n.buckets) + 1) * container.Slack * steady
				for i := 0; i < 2*container.WindowRounds; i++ {
					flushOf(steady)
				}
				if got := retainedCap(n); got > bound {
					t.Errorf("%d flushes after the burst the queue retains %d entries, want at most %d", 2*container.WindowRounds, got, bound)
				}
				// Once every bucket has regrown to the steady round, steady
				// traffic allocates nothing — across trim windows included —
				// and stays small.
				for i := 0; i < container.WindowRounds; i++ {
					flushOf(steady)
				}
				if avg := testing.AllocsPerRun(2*container.WindowRounds, func() { flushOf(steady) }); avg != 0 {
					t.Errorf("steady flush allocates %.1f times per run after the trim, want 0", avg)
				}
				if got := retainedCap(n); got < steady || got > bound {
					t.Errorf("steady state retains %d entries, want between %d and %d", got, steady, bound)
				}
			})
		}
	}

	// A burst every 16 flushes, a quarter of the window: the high-water
	// mark never forgets it, so once the ring has grown to it nothing is
	// trimmed and nothing reallocated.
	t.Run("alternation", func(t *testing.T) {
		const big, small, period = 10000, 250, container.WindowRounds / 4
		n, flushOf := world(0)
		window := func() {
			for i := 0; i < container.WindowRounds; i++ {
				if i%period == 0 {
					flushOf(big)
				} else {
					flushOf(small)
				}
			}
		}
		for i := 0; i < 4; i++ {
			window()
		}
		if avg := testing.AllocsPerRun(3, window); avg > 1 {
			t.Errorf("big/small alternation allocates %.0f times per window, want at most 1", avg)
		}
		if got := retainedCap(n); got < big {
			t.Errorf("retained capacity %d fell below the recurring burst of %d", got, big)
		}
	})
}

// Jitter wider than the ring forces growBuckets while entries are pending;
// the rehomed buckets must still deliver every entry once, inside its
// jitter span, and in enqueue order within each due tick.
func TestRingGrowthKeepsTickFIFO(t *testing.T) {
	const jitter, perTick, sendTicks = 40, 30, 20
	cfg := testConfig()
	cfg.Seed = 5
	n := New(cfg)
	// Per delivered uplink, its sequence number and the tick it arrived at.
	var log struct {
		at   []model.Tick
		seqs []int
	}
	n.AttachServer(transport.ServerHandlerFunc(func(_ model.ObjectID, m protocol.Message) {
		log.at = append(log.at, n.Now())
		log.seqs = append(log.seqs, int(m.(protocol.QueryDeregister).Query))
	}))
	ring := len(n.buckets)
	n.SetFaults(FaultConfig{JitterTicks: jitter})
	var sentAt []model.Tick
	for tick := model.Tick(1); tick <= sendTicks+jitter; tick++ {
		n.SetNow(tick)
		if tick <= sendTicks {
			for i := 0; i < perTick; i++ {
				n.ClientSide(1).Uplink(protocol.QueryDeregister{Query: model.QueryID(len(sentAt))})
				sentAt = append(sentAt, tick)
			}
		}
		if tick == 1 && (len(n.buckets) <= ring || n.PendingCount() != perTick) {
			t.Fatalf("ring of %d (was %d) with %d pending: the scenario exists to grow it while entries are queued",
				len(n.buckets), ring, n.PendingCount())
		}
		n.Flush()
	}
	if len(log.seqs) != len(sentAt) || n.PendingCount() != 0 {
		t.Fatalf("delivered %d of %d, %d pending", len(log.seqs), len(sentAt), n.PendingCount())
	}
	seen := make([]bool, len(sentAt))
	for i, seq := range log.seqs {
		if seen[seq] {
			t.Fatalf("uplink %d delivered twice", seq)
		}
		seen[seq] = true
		if d := log.at[i] - sentAt[seq]; d < 0 || d > jitter {
			t.Fatalf("uplink %d sent at tick %d arrived at tick %d, outside its jitter span", seq, sentAt[seq], log.at[i])
		}
		if i > 0 && log.at[i] == log.at[i-1] && seq < log.seqs[i-1] {
			t.Fatalf("tick %d delivered uplink %d after uplink %d: FIFO within a due tick broken", log.at[i], seq, log.seqs[i-1])
		}
	}
}

// The queue's entries and records are most of what the medium holds per
// message in flight, and the client table is one row per device: an
// uplink or downlink entry carries no broadcast coverage, and an audience
// entry is one packed id and slot.
func TestLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"queued", unsafe.Sizeof(queued{}), 40},
		{"client", unsafe.Sizeof(client{}), 32},
		{"entry", unsafe.Sizeof(entry(0)), 8},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d B, want at most %d", c.name, c.got, c.want)
		}
	}
}

// Between flushes the queue holds an array only for what is in flight:
// at latency 0 the scratch and the spare serve every tick, and at
// latency 2 the two buckets still pending join them. A ring slot with
// nothing pending holds none.
func TestQueueRetainsOnlyInFlightArrays(t *testing.T) {
	var msg protocol.Message = protocol.QueryDeregister{Query: 1}
	for _, c := range []struct{ latency, most int }{{0, 2}, {2, 4}} {
		t.Run(fmt.Sprintf("latency=%d", c.latency), func(t *testing.T) {
			cfg := testConfig()
			cfg.LatencyTicks = c.latency
			n := New(cfg)
			n.AttachServer(transport.ServerHandlerFunc(func(model.ObjectID, protocol.Message) {}))
			up := n.ClientSide(1)
			most := 0
			for tick := model.Tick(1); tick <= 200; tick++ {
				n.SetNow(tick)
				for i := 0; i < 1000; i++ {
					up.Uplink(msg)
				}
				n.Flush()
				checkQueueClean(t, n)
				held := 0
				for _, s := range queueSlices(n) {
					if cap(s) > 0 {
						held++
					}
				}
				most = max(most, held)
			}
			if most > c.most {
				t.Errorf("up to %d queue slices hold an array between flushes, want at most %d", most, c.most)
			}
		})
	}
}

// A duplicated broadcast's copies deliver at different ticks under
// jitter, and the first copy's record is recycled once it has delivered:
// here the very next broadcast, to another region with another message,
// takes it. The second copy must still reach the original region with the
// original message, as the linear oracle delivers it.
func TestDuplicateOwnsItsRecord(t *testing.T) {
	cfg := testConfig()
	// At seed 1 the first broadcast is duplicated to two different ticks
	// and the second is not duplicated; the test checks both.
	cfg.Seed = 1
	cfg.Faults = FaultConfig{JitterTicks: 3, DuplicateProb: 0.5}
	// Ten clients in the west column of cells and ten in the east: the two
	// regions' audiences are disjoint, so what each client hears does not
	// depend on the order the three deliveries take.
	west := geo.Circle{Center: geo.Pt(150, 500), R: 100}
	east := geo.Circle{Center: geo.Pt(850, 500), R: 100}
	setup := func(w *fanoutWorld) {
		for i := 0; i < 10; i++ {
			w.attach(model.ObjectID(i+1), geo.Pt(150, 410+float64(i)*20))
			w.attach(model.ObjectID(i+11), geo.Pt(850, 410+float64(i)*20))
		}
	}
	w, ref := newFanoutWorld(cfg, false), newFanoutWorld(cfg, false)
	setup(w)
	setup(ref)
	// broadcastEntries returns the pending broadcast entries by due tick.
	broadcastEntries := func() []queued {
		var out []queued
		for tick := w.net.bucketLow; tick < w.net.bucketHigh; tick++ {
			for _, q := range w.net.buckets[int(tick)&(len(w.net.buckets)-1)] {
				if q.dir == metrics.Broadcast {
					out = append(out, q)
				}
			}
		}
		return out
	}

	w.net.SetNow(1)
	w.net.ServerSide().Broadcast(west, protocol.AnswerUpdate{Query: 1})
	copies := broadcastEntries()
	if len(copies) != 2 || copies[0].due == copies[1].due {
		t.Fatalf("seed %d: want one broadcast duplicated to two ticks, got %d entries %+v", cfg.Seed, len(copies), copies)
	}
	first := copies[0]
	for tick := model.Tick(1); tick <= first.due; tick++ {
		w.net.SetNow(tick)
		w.net.Flush()
	}
	checkQueueClean(t, w.net)
	w.net.ServerSide().Broadcast(east, protocol.AnswerUpdate{Query: 2})
	pending := broadcastEntries()
	if w.net.Duplicated(metrics.Broadcast) != 1 || len(pending) != 2 {
		t.Fatalf("seed %d: the second broadcast must not be duplicated (%d duplicates, %d pending)",
			cfg.Seed, w.net.Duplicated(metrics.Broadcast), len(pending))
	}
	reused := false
	for _, q := range pending {
		reused = reused || q.b == first.b && q.b.region == east
	}
	if !reused {
		t.Fatalf("seed %d: the second broadcast did not take the first copy's freed record", cfg.Seed)
	}
	for tick := first.due; tick <= first.due+model.Tick(cfg.Faults.JitterTicks)+1; tick++ {
		w.net.SetNow(tick)
		w.net.Flush()
	}
	if w.net.PendingCount() != 0 {
		t.Fatalf("%d entries left pending", w.net.PendingCount())
	}
	checkQueueClean(t, w.net)

	ref.linearFanout(west, nil, protocol.AnswerUpdate{Query: 1})
	ref.linearFanout(west, nil, protocol.AnswerUpdate{Query: 1})
	ref.linearFanout(east, nil, protocol.AnswerUpdate{Query: 2})
	for id := model.ObjectID(1); id <= 20; id++ {
		if got, want := w.rec(id).seen, ref.rec(id).seen; !slices.Equal(got, want) {
			t.Errorf("client %d heard %v, want %v", id, got, want)
		}
	}
}

// retainedBytes is what the queue holds between flushes: its arrays'
// capacity and its free broadcast records.
func retainedBytes(n *Network) int {
	return retainedCap(n)*int(unsafe.Sizeof(queued{})) +
		cap(n.bfree)*int(unsafe.Sizeof((*bcast)(nil))) + len(n.bfree)*int(unsafe.Sizeof(bcast{}))
}

// BenchmarkFlushRound measures one many-query-shaped tick through the
// queue: 6 000 uplinks and 24 region broadcasts of about 900 recipients
// each (R = 1 080 m over 20 000 devices in a 10 km world on a 64 × 64
// grid), then one Flush. queue-B is what the queue retains afterwards
// (retainedBytes); recipients/bcast is the mean audience.
func BenchmarkFlushRound(b *testing.B) {
	const devices, uplinks, broadcasts = 20000, 6000, 24
	w := newFanoutWorld(Config{
		Geometry: grid.NewGeometry(geo.NewRect(geo.Pt(0, 0), geo.Pt(10000, 10000)), 64, 64),
	}, false)
	rng := rand.New(rand.NewSource(1))
	for id := model.ObjectID(1); id <= devices; id++ {
		w.attach(id, geo.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	w.net.AttachServer(transport.ServerHandlerFunc(func(model.ObjectID, protocol.Message) {}))
	ups := make([]transport.ClientSide, uplinks)
	for i := range ups {
		ups[i] = w.net.ClientSide(model.ObjectID(i + 1))
	}
	var report protocol.Message = protocol.LocationReport{Object: 1, Pos: geo.Pt(1, 2)}
	var install protocol.Message = protocol.MonitorCancel{Query: 1}
	regions := make([]geo.Circle, broadcasts)
	for i := range regions {
		regions[i] = geo.Circle{Center: geo.Pt(1500+rng.Float64()*7000, 1500+rng.Float64()*7000), R: 1080}
	}
	side := w.net.ServerSide()
	tick := model.Tick(0)
	round := func() {
		tick++
		w.net.SetNow(tick)
		for _, up := range ups {
			up.Uplink(report)
		}
		for _, r := range regions {
			side.Broadcast(r, install)
		}
		w.net.Flush()
	}
	for i := 0; i < 2*len(w.net.buckets); i++ {
		round()
	}
	heard := w.net.Counters().Delivered(metrics.Broadcast)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(retainedBytes(w.net)), "queue-B")
	b.ReportMetric(float64(w.net.Counters().Delivered(metrics.Broadcast)-heard)/float64(b.N*broadcasts), "recipients/bcast")
}
