package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dmknn/internal/cluster"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/nettcp"
	"dmknn/internal/shard"
	"dmknn/internal/simnet"
	"dmknn/internal/transport"
)

// maxFinalizeRounds bounds the probe/install rounds of one tick, as
// sim.Engine does; exceeding it is a protocol livelock.
const maxFinalizeRounds = 16

// quiesceTimeout is how long the socket medium may take to settle before
// the run is failed.
const quiesceTimeout = 5 * time.Second

// engine is the periodic surface every server shape shares.
type engine interface {
	Tick(now model.Tick)
	Finalize(now model.Tick) bool
}

// rig is one assembled system: a world, a medium, a server shape and one
// agent per client, wired from the packages' exported constructors.
type rig struct {
	sp  spec
	w   *world
	rec *recorder // nil in the untraced pass
	tl  *tally

	srv      engine
	drain    func(model.Tick) // batched engine only
	objs     []*core.ObjectAgent
	qrys     []*core.QueryAgent
	setNow   func(model.Tick)
	deliver  func() error
	counters func() metrics.Counters
	busy     func() time.Duration
	close    func() error

	serverNS atomic.Int64 // always-on timer: time inside server entry points
	flushes  int          // deliver calls
	rounds   int          // Finalize calls

	// Engine-specific handles the per-layer metrics read.
	net      *simnet.Network
	link     *cluster.MemLink
	cl       *cluster.Cluster
	nodeBusy func() []time.Duration

	// tcp only.
	clock      atomic.Int64
	bar        *barrier
	driverCall atomic.Int32 // spanName of the server call the driver is in, else spIngest
	tcp        *nettcp.Server
	clients    []*nettcp.Client
	gone       atomic.Int64
	barrierNS  int64
	timeouts   int
	serveErr   chan error
}

// newRig builds the workload's system for one seed. rec is nil for the
// untraced pass.
func newRig(sp spec, seed int64, rec *recorder) (*rig, error) {
	w, err := newWorld(sp, seed)
	if err != nil {
		return nil, err
	}
	r := &rig{sp: sp, w: w, rec: rec}
	r.driverCall.Store(int32(spIngest))
	if rec != nil {
		r.tl = &tally{}
	}
	cfg := sp.proto.WithWorldDefault(sp.world)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sp.engine == engineTCP {
		err = r.buildTCP(cfg)
	} else {
		err = r.buildSim(cfg, seed)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rig) handler(inner transport.ServerHandler) *handlerWrap {
	return &handlerWrap{inner: inner, ns: &r.serverNS, rec: r.rec, tl: r.tl}
}

// buildSim wires the three simulated-medium engines, mirroring
// sim.NewEngine and each package's sim.Method.Setup.
func (r *rig) buildSim(cfg core.Config, seed int64) error {
	sp, w := r.sp, r.w
	geom := grid.NewGeometry(sp.world, sp.cols, sp.rows)
	net := simnet.New(simnet.Config{Geometry: geom, Seed: seed + netSeedMix})
	r.net = net
	net.SetPositionOracle(func(id model.ObjectID) (geo.Point, bool) {
		if n := int(id); n >= 1 && n <= len(w.objects) {
			return w.objects[n-1].Pos, true
		}
		if qi := int(id) - len(w.objects) - 1; qi >= 0 && qi < len(w.queries) {
			return w.queries[qi].Pos, true
		}
		return geo.Point{}, false
	})
	deps := core.ServerDeps{
		Side: wrapSide(net.ServerSide(), r.rec, r.tl),
		Now:  net.Now, DT: 1,
		MaxObjectSpeed: sp.maxSpeed, MaxQuerySpeed: sp.maxSpeed,
	}
	switch sp.engine {
	case engineSync:
		srv, err := core.NewServer(cfg, deps)
		if err != nil {
			return err
		}
		r.srv, r.busy = srv, srv.BusyTime
		net.AttachServer(r.handler(srv))
	case engineBatched:
		srv, err := shard.NewWithOptions(sp.shards, cfg, deps, shard.Options{Batched: true, Workers: sp.workers})
		if err != nil {
			return err
		}
		r.srv, r.busy = srv, srv.BusyTime
		r.drain = func(now model.Tick) { srv.Drain(now) }
		net.AttachServer(r.handler(srv))
	case engineFed:
		if err := r.buildFed(cfg, geom); err != nil {
			return err
		}
	}
	r.setNow = net.SetNow
	r.deliver = func() error { net.Flush(); return nil }
	r.counters = func() metrics.Counters { return net.Counters().Snapshot() }
	r.close = func() error { return nil }
	return r.buildAgents(cfg, net.Now, func(id model.ObjectID, pos func() geo.Point) (transport.ClientSide, func(transport.ClientHandler), error) {
		return net.ClientSide(id), func(h transport.ClientHandler) {
			if r.rec != nil {
				h = &clientWrap{inner: h, pos: pos, rec: r.rec, tl: r.tl}
			}
			net.AttachClient(id, h)
		}, nil
	})
}

func (r *rig) buildFed(cfg core.Config, geom grid.Geometry) error {
	part, err := cluster.NewPartition(geom, r.sp.nodes)
	if err != nil {
		return err
	}
	r.link = cluster.NewMemLink(cluster.LinkConfig{}, r.net.Now)
	var link cluster.Link = r.link
	if r.rec != nil {
		link = &linkWrap{inner: r.link, rec: r.rec}
	}
	ref := cluster.NewPartitionRef(part)
	cl, err := cluster.New(part, cfg, cluster.Deps{
		Link: link,
		Radio: func(node int) transport.ServerSide {
			side := r.net.RestrictedServerSide(func(c grid.Cell) bool {
				return ref.Load().CellOwner(c) == node
			})
			return wrapSide(side, r.rec, r.tl)
		},
		Now: r.net.Now, DT: 1,
		MaxObjectSpeed: r.sp.maxSpeed, MaxQuerySpeed: r.sp.maxSpeed,
		PartRef: ref,
	})
	if err != nil {
		return err
	}
	r.cl = cl
	r.link.OnDeliver(cl.HandleLink)
	r.net.AttachServer(r.handler(cl))
	for _, o := range r.w.objects {
		cl.SeedHome(o.ID, o.Pos)
	}
	for _, q := range r.w.queries {
		cl.SeedHome(q.ID, q.Pos)
	}
	r.srv = cl
	r.nodeBusy = func() []time.Duration {
		out := make([]time.Duration, r.sp.nodes)
		for i := range out {
			out[i] = cl.Node(i).BusyTime()
		}
		return out
	}
	// The nodes tick in parallel: the federation's busy time is its
	// critical path, the busiest node (as cluster.Method reports it).
	r.busy = func() time.Duration {
		var most time.Duration
		for _, d := range r.nodeBusy() {
			most = max(most, d)
		}
		return most
	}
	return nil
}

// buildAgents creates one agent per client. connect returns the client's
// sending surface and the function that installs its handler on the
// medium: a connection must exist before the agent (it is the agent's
// sending surface), and the agent before the first message arrives.
func (r *rig) buildAgents(cfg core.Config, now func() model.Tick,
	connect func(model.ObjectID, func() geo.Point) (transport.ClientSide, func(transport.ClientHandler), error)) error {
	w := r.w
	r.objs = make([]*core.ObjectAgent, len(w.objects))
	for i := range w.objects {
		id := model.ObjectID(i + 1)
		pos := r.sensor(&w.objects[i])
		side, attach, err := connect(id, pos)
		if err != nil {
			return err
		}
		a, err := core.NewObjectAgent(cfg, core.AgentDeps{ID: id, Side: side, Now: now, Pos: pos, DT: 1})
		if err != nil {
			return err
		}
		r.objs[i] = a
		attach(a)
	}
	r.qrys = make([]*core.QueryAgent, len(w.queries))
	for i := range w.queries {
		st := &w.queries[i]
		pos := r.sensor(st)
		side, attach, err := connect(st.ID, pos)
		if err != nil {
			return err
		}
		a, err := core.NewQueryAgent(cfg, w.specs[i], core.QueryAgentDeps{
			AgentDeps: core.AgentDeps{ID: st.ID, Side: side, Now: now, Pos: pos, DT: 1},
			Vel:       func() geo.Vector { return st.Vel },
		})
		if err != nil {
			return err
		}
		r.qrys[i] = a
		attach(a)
	}
	return nil
}

// sensor returns a client's own-position reader. On tcp the agents read
// it on transport goroutines, so the read is ordered after the driver's
// motion step by loading the clock the driver stored after moving.
func (r *rig) sensor(st *model.ObjectState) func() geo.Point {
	if r.sp.engine == engineTCP {
		return func() geo.Point { r.clock.Load(); return st.Pos }
	}
	return func() geo.Point { return st.Pos }
}

// buildTCP puts one core.Server behind a nettcp listener on loopback and
// dials one connection per client. The load generator stays one process
// and one driver goroutine stepping every agent.
func (r *rig) buildTCP(cfg core.Config) error {
	sp := r.sp
	r.bar = newBarrier()
	geom := grid.NewGeometry(sp.world, sp.cols, sp.rows)
	ts, err := nettcp.Listen("127.0.0.1:0", geom)
	if err != nil {
		return err
	}
	r.tcp = ts
	now := func() model.Tick { return model.Tick(r.clock.Load()) }
	side := &sideWrap{
		inner: ts.Side(), rec: r.rec, tl: r.tl,
		bar: r.bar, conns: int64(sp.objects + sp.queries), driverCall: &r.driverCall,
	}
	srv, err := core.NewServer(cfg, core.ServerDeps{
		Side: side, Now: now, DT: 1,
		MaxObjectSpeed: sp.maxSpeed, MaxQuerySpeed: sp.maxSpeed,
	})
	if err != nil {
		ts.Close()
		return err
	}
	r.srv, r.busy = srv, srv.BusyTime
	h := r.handler(srv)
	h.bar, h.gone, h.flat = r.bar, &r.gone, true
	ts.AttachHandler(h)
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- ts.Serve() }()

	r.setNow = func(t model.Tick) { r.clock.Store(int64(t)) }
	r.deliver = r.awaitQuiescence
	r.counters = ts.Counters
	r.close = r.closeTCP

	addr := ts.Addr().String()
	err = r.buildAgents(cfg, now, func(id model.ObjectID, pos func() geo.Point) (transport.ClientSide, func(transport.ClientHandler), error) {
		cw := &clientWrap{pos: pos, bar: r.bar, rec: r.rec, tl: r.tl, flat: true}
		cl, err := nettcp.Dial(addr, id, cw)
		if err != nil {
			return nil, nil, err
		}
		r.clients = append(r.clients, cl)
		return &uplinkWrap{inner: cl, bar: r.bar, rec: r.rec}, func(h transport.ClientHandler) { cw.inner = h }, nil
	})
	if err != nil {
		r.closeTCP()
		return err
	}
	// Handshakes complete on the server's accept goroutines.
	want := sp.objects + sp.queries
	for deadline := time.Now().Add(quiesceTimeout); ts.ClientCount() < want; {
		if time.Now().After(deadline) {
			r.closeTCP()
			return fmt.Errorf("tcp: %d of %d clients connected", ts.ClientCount(), want)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (r *rig) awaitQuiescence() error {
	start := time.Now()
	r.rec.begin(spBarrierWait)
	ok := r.bar.wait(quiesceTimeout)
	r.rec.end()
	r.barrierNS += int64(time.Since(start))
	if !ok {
		r.timeouts++
		return fmt.Errorf("tcp: no quiescence within %v (uplinks %d/%d, frames %d/%d)", quiesceTimeout,
			r.bar.upHandled.Load(), r.bar.upWritten.Load(), r.bar.frHandled.Load(), r.bar.frExpected.Load())
	}
	return nil
}

// clientErrors counts connections that latched a transport error.
func (r *rig) clientErrors() int {
	n := 0
	for _, cl := range r.clients {
		if cl.Err() != nil {
			n++
		}
	}
	return n
}

func (r *rig) closeTCP() error {
	for _, cl := range r.clients {
		cl.Close() // the error is the close of an already-failed conn
	}
	err := r.tcp.Close()
	if serr := <-r.serveErr; serr != nil {
		err = errors.Join(err, serr)
	}
	return err
}

// serverCall runs one driver-issued server entry point under the
// always-on timer.
func (r *rig) serverCall(name spanName, fn func()) {
	r.driverCall.Store(int32(name))
	r.rec.begin(name)
	start := time.Now()
	fn()
	r.serverNS.Add(int64(time.Since(start)))
	r.rec.end()
	r.driverCall.Store(int32(spIngest))
}

func (r *rig) flush() error {
	r.flushes++
	if r.net == nil {
		return r.deliver()
	}
	r.rec.begin(spSimnetFlush)
	err := r.deliver()
	r.rec.end()
	return err
}

// tick runs the protocol rounds of one tick to quiescence: the same
// sequence as sim.Engine.step after motion. It is the timed span.
func (r *rig) tick(now model.Tick) error {
	r.rec.begin(spTick)
	defer r.rec.end()
	r.setNow(now)
	r.rec.begin(spAgentsTick)
	for _, q := range r.qrys {
		q.Tick(now)
	}
	for _, o := range r.objs {
		o.Tick(now)
	}
	r.rec.end()
	if err := r.flush(); err != nil {
		return err
	}
	if r.drain != nil {
		r.serverCall(spDrain, func() { r.drain(now) })
	}
	r.serverCall(spServerTick, func() { r.srv.Tick(now) })
	if err := r.flush(); err != nil {
		return err
	}
	for round := 0; ; round++ {
		more := false
		r.rounds++
		r.serverCall(spFinalize, func() { more = r.srv.Finalize(now) })
		if !more {
			return nil
		}
		if round == maxFinalizeRounds {
			return fmt.Errorf("%s did not quiesce at tick %d", r.sp.name, now)
		}
		if err := r.flush(); err != nil {
			return err
		}
	}
}

// answer returns query i's client-visible answer.
func (r *rig) answer(i int) model.Answer { return r.qrys[i].Answer() }
