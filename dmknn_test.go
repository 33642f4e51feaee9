package dmknn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dmknn/internal/model"
	"dmknn/internal/obs"
)

// quickSim is a small, fast configuration for facade tests.
func quickSim(method string) SimConfig {
	return SimConfig{
		Method:         method,
		World:          Rect{0, 0, 1000, 1000},
		GridCols:       16,
		GridRows:       16,
		NumObjects:     400,
		NumQueries:     4,
		K:              5,
		MaxObjectSpeed: 10,
		MaxQuerySpeed:  10,
		Ticks:          40,
		Warmup:         10,
		Seed:           3,
		Protocol:       Protocol{HorizonTicks: 8, MinProbeRadius: 100},
	}
}

func TestRunDKNN(t *testing.T) {
	rep, err := Run(quickSim(MethodDKNN))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "dknn" {
		t.Errorf("method = %q", rep.Method)
	}
	if rep.Exactness != 1.0 {
		t.Errorf("default DKNN must be exact, got %v", rep.Exactness)
	}
	if rep.UplinkPerTick <= 0 {
		t.Error("no uplink traffic measured")
	}
	if rep.UplinkBytes == 0 {
		t.Error("no uplink bytes measured")
	}
	if !strings.Contains(rep.MessageBreakdown, "move-report") {
		t.Errorf("breakdown missing protocol rows:\n%s", rep.MessageBreakdown)
	}
}

func TestRunComparesMethods(t *testing.T) {
	dknn, err := Run(quickSim(MethodDKNN))
	if err != nil {
		t.Fatal(err)
	}
	cp, err := Run(quickSim(MethodCP))
	if err != nil {
		t.Fatal(err)
	}
	ci := quickSim(MethodCI)
	ci.CITau = 20
	ciRep, err := Run(ci)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Exactness != 1.0 {
		t.Errorf("CP exactness = %v", cp.Exactness)
	}
	if !(dknn.UplinkPerTick < ciRep.UplinkPerTick && ciRep.UplinkPerTick < cp.UplinkPerTick) {
		t.Errorf("expected DKNN < CI < CP uplink, got %.1f / %.1f / %.1f",
			dknn.UplinkPerTick, ciRep.UplinkPerTick, cp.UplinkPerTick)
	}
}

func TestRunRejectsUnknownMethod(t *testing.T) {
	cfg := quickSim("bogus")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown method accepted")
	}
	cfg = quickSim(MethodDKNN)
	cfg.Mobility = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown mobility accepted")
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	// A zero config must resolve to the headline workload; just check the
	// defaulting logic, not a full (expensive) run.
	cfg := SimConfig{}.withDefaults()
	if cfg.Method != MethodDKNN || cfg.NumObjects != 20000 || cfg.K != 10 {
		t.Errorf("defaults = %+v", cfg)
	}
	if cfg.World == (Rect{}) {
		t.Error("world not defaulted")
	}
}

func TestAnswerString(t *testing.T) {
	a := Answer{Query: 3, Tick: 9, Neighbors: []Neighbor{{ID: 1, Distance: 2.5}}}
	if a.String() == "" {
		t.Error("empty answer string")
	}
}

// Full deployment loop through the public API: server + object clients +
// query client over real TCP with a fast tick.
func TestDeploymentEndToEnd(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 20 * time.Millisecond
	proto := Protocol{HorizonTicks: 8, MinProbeRadius: 100, AnswerSlack: 1}

	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		World:          world,
		GridCols:       10,
		GridRows:       10,
		TickInterval:   tick,
		MaxObjectSpeed: 10,
		MaxQuerySpeed:  10,
		Protocol:       proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}

	var mu sync.Mutex
	positions := map[ObjectID]Point{
		1: {500, 520},
		2: {500, 540},
		3: {100, 100},
	}
	for id := ObjectID(1); id <= 3; id++ {
		id := id
		oc, err := DialObject([]string{srv.Addr()}, id, func() Point {
			mu.Lock()
			defer mu.Unlock()
			return positions[id]
		}, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer oc.Close()
	}

	answers := make(chan Answer, 64)
	qc, err := DialQuery([]string{srv.Addr()}, 100, 1, 2,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} },
		func(a Answer) {
			select {
			case answers <- a:
			default:
			}
		},
		copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	// Wait for an initial complete answer.
	deadline := time.After(5 * time.Second)
	var got Answer
	for len(got.Neighbors) != 2 {
		select {
		case got = <-answers:
		case <-deadline:
			t.Fatalf("no complete answer; latest client view: %v", qc.Answer())
		}
	}
	if got.Neighbors[0].ID != 1 || got.Neighbors[1].ID != 2 {
		t.Fatalf("initial answer = %v, want objects 1,2", got)
	}
	if d := got.Neighbors[0].Distance; math.Abs(d-20) > 1e-6 {
		t.Errorf("nearest distance = %v, want 20", d)
	}

	// Move object 3 next to the query; the answer must change to include
	// it.
	mu.Lock()
	positions[3] = Point{500, 505}
	mu.Unlock()
	deadline = time.After(5 * time.Second)
	for {
		select {
		case a := <-answers:
			if len(a.Neighbors) == 2 && (a.Neighbors[0].ID == 3 || a.Neighbors[1].ID == 3) {
				if srv.QueryCount() != 1 {
					t.Errorf("QueryCount = %d", srv.QueryCount())
				}
				if srv.ClientCount() != 4 {
					t.Errorf("ClientCount = %d", srv.ClientCount())
				}
				return
			}
		case <-deadline:
			t.Fatalf("answer never updated; server view: %v", srv.Answer(1))
		}
	}
}

// Every row is rejected before a socket is opened; the expected error
// text pins which check rejected it.
func TestServerOptionsValidation(t *testing.T) {
	world := Rect{0, 0, 1, 1}
	peers := []string{"127.0.0.1:1", "127.0.0.1:2"}
	origin := func() Point { return Point{} }
	node := func(o FederationOptions) error {
		_, err := ListenAndServeNode(o)
		return err
	}
	in := ServerOptions{World: world}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"server without world", func() error {
			_, err := ListenAndServe("127.0.0.1:0", ServerOptions{})
			return err
		}, "ServerOptions.World is required"},
		{"client without world", func() error {
			_, err := DialObject([]string{"127.0.0.1:1"}, 1, origin, ClientOptions{})
			return err
		}, "ClientOptions.World is required"},
		{"client without an address", func() error {
			_, err := DialObject(nil, 1, origin, ClientOptions{World: world})
			return err
		}, "no server address"},
		{"node without world", func() error {
			return node(FederationOptions{PeerAddrs: peers, ClientAddrs: peers})
		}, "ServerOptions.World is required"},
		{"node without peers", func() error {
			return node(FederationOptions{ServerOptions: in})
		}, "FederationOptions.PeerAddrs is required"},
		{"node with too few client addresses", func() error {
			return node(FederationOptions{ServerOptions: in, PeerAddrs: peers, ClientAddrs: peers[:1]})
		}, "1 client addresses for 2 nodes"},
		{"node id below range", func() error {
			return node(FederationOptions{ServerOptions: in, Node: -1, PeerAddrs: peers, ClientAddrs: peers})
		}, "node -1 outside [0,2)"},
		{"node id above range", func() error {
			return node(FederationOptions{ServerOptions: in, Node: 2, PeerAddrs: peers, ClientAddrs: peers})
		}, "node 2 outside [0,2)"},
		{"sharded node", func() error {
			return node(FederationOptions{ServerOptions: ServerOptions{World: world, Shards: 2}, PeerAddrs: peers, ClientAddrs: peers})
		}, "not 2 shards"},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRunRangeMonitoring(t *testing.T) {
	cfg := quickSim(MethodDKNN)
	cfg.K = 0
	cfg.QueryRange = 120
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exactness != 1.0 {
		t.Errorf("range monitoring exactness = %v", rep.Exactness)
	}
}

// DialRange registers a fixed-radius monitor over TCP.
func TestDeploymentRangeQuery(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 20 * time.Millisecond
	proto := Protocol{HorizonTicks: 8, MinProbeRadius: 100}
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}

	// Two objects inside the 100 m radius, one outside.
	for id, p := range map[ObjectID]Point{1: {520, 500}, 2: {500, 540}, 3: {800, 800}} {
		p := p
		oc, err := DialObject([]string{srv.Addr()}, id, func() Point { return p }, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer oc.Close()
	}
	got := make(chan Answer, 16)
	qc, err := DialRange([]string{srv.Addr()}, 100, 1, 100,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} },
		func(a Answer) {
			select {
			case got <- a:
			default:
			}
		}, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case a := <-got:
			if len(a.Neighbors) == 2 {
				set := map[ObjectID]bool{}
				for _, n := range a.Neighbors {
					set[n.ID] = true
				}
				if !set[1] || !set[2] {
					t.Fatalf("range answer = %v", a.Neighbors)
				}
				return
			}
		case <-deadline:
			t.Fatalf("no complete range answer; server view %v", srv.Answer(1))
		}
	}
}

func TestDialRangeValidation(t *testing.T) {
	if _, err := DialRange([]string{"127.0.0.1:1"}, 1, 1, 0, nil, nil, nil,
		ClientOptions{World: Rect{0, 0, 1, 1}}); err == nil {
		t.Fatal("zero radius accepted")
	}
}

func TestServerStats(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 20 * time.Millisecond
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{World: world, TickInterval: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	oc, err := DialObject([]string{srv.Addr()}, 1, func() Point { return Point{1, 1} },
		ClientOptions{World: world, TickInterval: tick})
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Clients != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stats never saw the client: %+v", srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stubCore records what the evaluation loop asks of its engine.
type stubCore struct {
	serverCore // nil: only what the loop body calls is implemented
	ticks      []model.Tick
	finalizes  int
	rounds     int // Finalize reports activity this many times per tick
}

func (c *stubCore) Tick(t model.Tick) { c.ticks = append(c.ticks, t) }
func (c *stubCore) Finalize(model.Tick) bool {
	c.finalizes++
	return c.finalizes%(c.rounds+1) != 0
}

// The evaluation loop's body, with no socket and no clock: the ticks the
// wall clock went past without an evaluation are counted — none for the
// first tick, whatever its number, none when the ticker fires twice inside
// one interval — housekeeping runs ahead of every evaluation, and Finalize
// is called until it settles.
func TestServingCountsSkippedTicks(t *testing.T) {
	eng := &stubCore{rounds: 2}
	kept := 0
	s := &serving{core: eng, housekeep: func() { kept++ }}
	for i, c := range []struct {
		tick    model.Tick
		skipped uint64
	}{{10, 0}, {11, 0}, {14, 2}, {14, 2}, {15, 2}} {
		s.tick(c.tick)
		if got := s.skipped.Load(); got != c.skipped {
			t.Errorf("step %d (tick %d): %d ticks skipped, want %d", i, c.tick, got, c.skipped)
		}
	}
	if want := []model.Tick{10, 11, 14, 14, 15}; !slices.Equal(eng.ticks, want) {
		t.Errorf("engine ticked at %v, want %v", eng.ticks, want)
	}
	if kept != 5 {
		t.Errorf("housekeeping ran %d times in 5 ticks", kept)
	}
	if eng.finalizes != 5*3 {
		t.Errorf("Finalize called %d times, want 3 per tick", eng.finalizes)
	}
}

// A deployed server with ServerOptions.Trace armed must stream protocol
// events through the real TCP stack into the recorder: registration, the
// probe rounds, the install, and the first full answer all leave a trace.
func TestDeploymentTraceRecorder(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 20 * time.Millisecond
	proto := Protocol{HorizonTicks: 8, MinProbeRadius: 100, AnswerSlack: 1}
	rec := obs.NewRecorder(0)
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto,
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}
	oc, err := DialObject([]string{srv.Addr()}, 1, func() Point { return Point{500, 520} }, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	answers := make(chan Answer, 16)
	qc, err := DialQuery([]string{srv.Addr()}, 100, 1, 1,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} },
		func(a Answer) {
			select {
			case answers <- a:
			default:
			}
		}, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case a := <-answers:
			if len(a.Neighbors) != 1 {
				continue
			}
			// The server records EvAnswerFull after the downlink that
			// carries the answer, so the answer can get here first.
			for wait := time.Now().Add(time.Second); rec.Count(obs.EvAnswerFull) == 0 && time.Now().Before(wait); {
				time.Sleep(time.Millisecond)
			}
			for _, ev := range []obs.EventType{
				obs.EvQueryRegistered, obs.EvProbe, obs.EvInstalled, obs.EvAnswerFull,
			} {
				if rec.Count(ev) == 0 {
					t.Errorf("no %v event traced across the deployment", ev)
				}
			}
			return
		case <-deadline:
			t.Fatalf("no complete answer; recorder holds %d events", rec.Total())
		}
	}
}

// Churn soak: objects connect and disconnect while queries run; the
// server must stay available, leak no clients, and keep answering.
func TestDeploymentChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	world := Rect{0, 0, 1000, 1000}
	tick := 10 * time.Millisecond
	proto := Protocol{HorizonTicks: 8, MinProbeRadius: 200, AnswerSlack: 2}
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}

	// A stable core population near the query.
	for id := ObjectID(1); id <= 6; id++ {
		p := Point{480 + float64(id)*8, 500}
		oc, err := DialObject([]string{srv.Addr()}, id, func() Point { return p }, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer oc.Close()
	}
	updates := make(chan Answer, 256)
	qc, err := DialQuery([]string{srv.Addr()}, 1000, 1, 3,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} },
		func(a Answer) {
			select {
			case updates <- a:
			default:
			}
		}, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()

	// Churn: 40 transient objects connect near the query, live briefly,
	// and disconnect (some abruptly, exercising the reconnect/cleanup
	// paths).
	for i := 0; i < 40; i++ {
		id := ObjectID(100 + i)
		p := Point{495, 495}
		oc, err := DialObject([]string{srv.Addr()}, id, func() Point { return p }, copts)
		if err != nil {
			t.Fatalf("churn dial %d: %v", i, err)
		}
		time.Sleep(3 * tick)
		if err := oc.Close(); err != nil {
			t.Fatalf("churn close %d: %v", i, err)
		}
	}

	// The stable population must still be served.
	deadline := time.Now().Add(5 * time.Second)
	for {
		a := qc.Answer()
		if len(a.Neighbors) == 3 {
			ok := true
			for _, n := range a.Neighbors {
				if n.ID >= 100 {
					ok = false // transient member lingering is fine briefly
				}
			}
			if ok {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("answer did not settle after churn: %v (server %v)", a, srv.Answer(1))
		}
		time.Sleep(10 * time.Millisecond)
	}
	// All transient connections must be gone.
	deadline = time.Now().Add(2 * time.Second)
	for srv.ClientCount() != 7 {
		if time.Now().After(deadline) {
			t.Fatalf("client leak: %d connected, want 7", srv.ClientCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Stats().UplinkMsgs == 0 {
		t.Error("no traffic recorded")
	}
}

// A sharded deployed server end to end: uplinks queue per shard between
// ticks, the tick loop drains them, and the answers are the same as the
// single server's.
func TestDeploymentSharded(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			world := Rect{0, 0, 1000, 1000}
			tick := 20 * time.Millisecond
			proto := Protocol{HorizonTicks: 8, MinProbeRadius: 100}
			srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
				World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
				MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto, Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}
			for id, p := range map[ObjectID]Point{1: {510, 500}, 2: {530, 500}} {
				p := p
				oc, err := DialObject([]string{srv.Addr()}, id, func() Point { return p }, copts)
				if err != nil {
					t.Fatal(err)
				}
				defer oc.Close()
			}
			qc, err := DialQuery([]string{srv.Addr()}, 100, 7, 2,
				func() Point { return Point{500, 500} },
				func() Vector { return Vector{} }, nil, copts)
			if err != nil {
				t.Fatal(err)
			}
			defer qc.Close()
			deadline := time.Now().Add(5 * time.Second)
			for {
				if a := qc.Answer(); len(a.Neighbors) == 2 {
					if a.Neighbors[0].ID != 1 {
						t.Fatalf("answer = %v", a.Neighbors)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("no answer from sharded server: %v", srv.Answer(7))
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// Stats is read from outside the tick loop — `dknnd -http`'s /stats
// handler does — while the loop drains, ticks and transmits. Under -race
// this pins that the sharded server's busy time is safe to read then.
func TestDeploymentShardedStatsWhileTicking(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 10 * time.Millisecond
	proto := Protocol{HorizonTicks: 4, MinProbeRadius: 100}
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{
		World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto,
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	copts := ClientOptions{World: world, TickInterval: tick, Protocol: proto}
	for id, p := range map[ObjectID]Point{1: {510, 500}, 2: {530, 500}, 3: {560, 500}} {
		oc, err := DialObject([]string{srv.Addr()}, id, func() Point { return p }, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer oc.Close()
	}
	qc, err := DialQuery([]string{srv.Addr()}, 100, 7, 2,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} }, nil, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		srv.Stats()
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Queries != 1 || st.BroadcastMsgs == 0 || st.BusyTime <= 0 {
		t.Fatalf("stats after 0.5 s of ticks: %+v", st)
	}
}

// A standalone server restarts on the same address: its clients redial by
// themselves, the focal client registers its query again, and its answer
// is complete again, computed after the restart.
func TestDeploymentRedialsAfterRestart(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	tick := 20 * time.Millisecond
	proto := Protocol{HorizonTicks: 8, MinProbeRadius: 100}
	opts := ServerOptions{
		World: world, GridCols: 10, GridRows: 10, TickInterval: tick,
		MaxObjectSpeed: 10, MaxQuerySpeed: 10, Protocol: proto,
	}
	srv, err := ListenAndServe("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{srv.Addr()}
	copts := ClientOptions{World: world, GridCols: 10, GridRows: 10, TickInterval: tick, Protocol: proto}
	for id, p := range map[ObjectID]Point{1: {510, 500}, 2: {530, 500}, 3: {800, 800}} {
		oc, err := DialObject(addrs, id, func() Point { return p }, copts)
		if err != nil {
			t.Fatal(err)
		}
		defer oc.Close()
	}
	qc, err := DialQuery(addrs, 100, 7, 2,
		func() Point { return Point{500, 500} },
		func() Vector { return Vector{} }, nil, copts)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	// complete waits for the answer {1, 2} computed after tick since.
	complete := func(phase string, since int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			a := qc.Answer()
			if a.Tick > since && len(a.Neighbors) == 2 && a.Neighbors[0].ID == 1 && a.Neighbors[1].ID == 2 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: answer %v", phase, a)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	complete("before the restart", 0)

	srv.Close()
	down := time.Now().UnixNano() / int64(tick)
	srv, err = ListenAndServe(addrs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	complete("after the restart", down)
	if n := srv.QueryCount(); n != 1 {
		t.Errorf("restarted server holds %d queries", n)
	}
	if n := srv.ClientCount(); n != 4 {
		t.Errorf("%d clients reattached, want 4", n)
	}
}

func TestServerAnswerAccessor(t *testing.T) {
	world := Rect{0, 0, 1000, 1000}
	srv, err := ListenAndServe("127.0.0.1:0", ServerOptions{World: world, TickInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if a := srv.Answer(42); len(a.Neighbors) != 0 || a.Query != 42 {
		t.Fatalf("unknown query answer = %v", a)
	}
}
