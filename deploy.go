package dmknn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/nettcp"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/shard"
	"dmknn/internal/transport"
)

// ServerOptions configures a deployed query server.
type ServerOptions struct {
	// World is the coordinate region the population moves in. Required.
	World Rect
	// GridCols/GridRows define the broadcast cell layout (default
	// 64×64).
	GridCols, GridRows int
	// TickInterval is the evaluation interval Δt (default 1s). Server
	// and clients derive the shared tick number from the wall clock, so
	// hosts must be clock-synchronized to a fraction of this interval.
	TickInterval time.Duration
	// Speed bounds of the population in m/s (defaults 30/30). The
	// protocol's safety slack is sized from MaxObjectSpeed and from the
	// speed of the track each query advertises, capped at MaxQuerySpeed;
	// MaxQuerySpeed also bounds how far a query can stray from a stale
	// track during the delivery round trip.
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	// Protocol tunes the DKNN protocol.
	Protocol Protocol
	// Shards, when > 1, partitions the server's query state over that
	// many parallel shards (interior scaling on multicore hosts). Uplinks
	// arriving between ticks are then enqueued per shard and drained
	// shard-parallel at the next tick. The wire protocol is unchanged;
	// responses to mid-tick arrivals are deferred to the next tick
	// boundary, which a deployment already tolerates (LatencyTicks is 1).
	// Two shards pay at about a thousand queries on two cores and cost
	// time at a few dozen (DESIGN.md, "When the shards pay").
	Shards int
	// Trace, when set, receives the query server's structured protocol
	// events (see internal/obs), and a federation node's federation
	// events, stamped with the node id. The sink is invoked from the tick
	// loop and the transport's receive goroutines, so it must be safe for
	// concurrent use; obs.Recorder is. Nil disables tracing: the hot
	// paths then pay one branch per would-be event and nothing else.
	Trace obs.Sink
	// IdleReap, when > 0, evicts client connections with no inbound
	// frame for this long. Off by default: objects with no monitors are
	// legitimately silent indefinitely on TCP.
	IdleReap time.Duration
}

func (o ServerOptions) withDefaults() (ServerOptions, error) {
	if o.World == (Rect{}) {
		return o, fmt.Errorf("dmknn: ServerOptions.World is required")
	}
	defaultLayout(&o.GridCols, &o.GridRows, &o.TickInterval)
	if o.MaxObjectSpeed == 0 {
		o.MaxObjectSpeed = 30
	}
	if o.MaxQuerySpeed == 0 {
		o.MaxQuerySpeed = 30
	}
	return o, nil
}

// defaultLayout fills the defaults servers and clients share: a 64×64
// grid and a 1s tick.
func defaultLayout(cols, rows *int, tick *time.Duration) {
	if *cols == 0 {
		*cols = 64
	}
	if *rows == 0 {
		*rows = 64
	}
	if *tick == 0 {
		*tick = time.Second
	}
}

// latencyTicks is the delivery bound, in ticks, that a deployment of nodes
// servers and its clients assume. Over a real network a probe reply needs
// a round trip, one tick each way, so Finalize does not conclude a probe
// before the replies can possibly have arrived; in a federation a
// cross-boundary probe also pays a link hop each way, one tick more.
func latencyTicks(nodes int) int {
	if nodes > 1 {
		return 2
	}
	return 1
}

// wallClock converts the wall time to the shared tick number.
func wallClock(interval time.Duration) func() model.Tick {
	return func() model.Tick {
		return model.Tick(time.Now().UnixNano() / int64(interval))
	}
}

// serverCore is what a deployed endpoint needs of the engine behind it:
// the single server, the sharded one and a federation member alike.
type serverCore interface {
	core.Engine
	Answer(model.QueryID) model.Answer
	QueryCount() int
	Installs() core.InstallCounts
}

// Server is a deployed DKNN query server: a network endpoint that moving
// objects and query clients connect to.
type Server struct{ serving }

// ListenAndServe starts a query server on addr (":0" picks a port; see
// Server.Addr). The returned server is running; call Close to stop it.
func ListenAndServe(addr string, opts ServerOptions) (*Server, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	world := opts.World.internal()
	tcp, err := nettcp.Listen(addr, grid.NewGeometry(world, opts.GridCols, opts.GridRows))
	if err != nil {
		return nil, err
	}
	s := &Server{serving{tcp: tcp}}
	cfg := opts.Protocol.internal().WithWorldDefault(world)
	deps := core.ServerDeps{
		Side:           s.tcp.Side(),
		Now:            wallClock(opts.TickInterval),
		DT:             opts.TickInterval.Seconds(),
		MaxObjectSpeed: opts.MaxObjectSpeed,
		MaxQuerySpeed:  opts.MaxQuerySpeed,
		LatencyTicks:   latencyTicks(1),
		Trace:          opts.Trace,
	}
	// A sharded server drains the inter-tick arrivals inside Tick, on the
	// tick goroutine that owns the medium, and again in every Finalize, so
	// replies landing mid-round still conclude probes this tick.
	if opts.Shards > 1 {
		s.core, err = shard.NewWithOptions(opts.Shards, cfg, deps, shard.Options{})
	} else {
		s.core, err = core.NewServer(cfg, deps)
	}
	if err != nil {
		s.tcp.Close()
		return nil, err
	}
	s.serve(opts)
	return s, nil
}

// serving is the running part every deployed server shares: a client
// endpoint, the engine its uplinks feed, and the one evaluation loop that
// ticks the engine from the wall clock.
type serving struct {
	tcp  *nettcp.Server
	core serverCore
	// housekeep, when set, runs at the head of every tick: the endpoint's
	// own upkeep (idle-connection reaping).
	housekeep func()

	last    model.Tick // the tick evaluated last; 0 before the first
	skipped atomic.Uint64

	ticker *time.Ticker
	done   chan struct{}
	wg     sync.WaitGroup
}

// serve attaches the engine to the endpoint and starts the accept loop and
// the evaluation loop, which reaps idle connections ahead of every tick
// when opts.IdleReap is set.
func (s *serving) serve(opts ServerOptions) {
	if opts.IdleReap > 0 {
		s.housekeep = func() { s.tcp.ReapIdle(opts.IdleReap) }
	}
	s.tcp.AttachHandler(s.core)
	s.ticker = time.NewTicker(opts.TickInterval)
	s.done = make(chan struct{})
	now := wallClock(opts.TickInterval)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		_ = s.tcp.Serve()
	}()
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.done:
				return
			case <-s.ticker.C:
				s.tick(now())
			}
		}
	}()
}

// tick evaluates wall-clock tick t. The ticker drops the ticks an
// overrunning evaluation sat through, and nothing ever makes them up;
// they are counted, so an overloaded server shows in its Stats.
func (s *serving) tick(t model.Tick) {
	if s.last != 0 && t > s.last+1 {
		s.skipped.Add(uint64(t - s.last - 1))
	}
	s.last = t
	if s.housekeep != nil {
		s.housekeep()
	}
	s.core.Tick(t)
	for i := 0; i < 8 && s.core.Finalize(t); i++ {
	}
}

// halt stops the evaluation loop from starting another tick.
func (s *serving) halt() {
	close(s.done)
	s.ticker.Stop()
}

// closeEndpoint disconnects every client and waits for both loops.
func (s *serving) closeEndpoint() error {
	err := s.tcp.Close()
	s.wg.Wait()
	return err
}

// Close stops the evaluation loop and the client endpoint.
func (s *serving) Close() error {
	s.halt()
	return s.closeEndpoint()
}

// Addr returns the client listen address ("host:port").
func (s *serving) Addr() string { return s.tcp.Addr().String() }

// Answer returns the server's current answer for a query registered (in a
// federation: homed) here.
func (s *serving) Answer(q QueryID) Answer {
	return fromAnswer(s.core.Answer(model.QueryID(q)))
}

// QueryCount returns the number of continuous queries registered (in a
// federation: homed) here.
func (s *serving) QueryCount() int { return s.core.QueryCount() }

// ClientCount returns the number of connected clients.
func (s *serving) ClientCount() int { return s.tcp.ClientCount() }

// Stats is an operational snapshot of a deployed server.
type Stats struct {
	Clients        int           `json:"clients"`
	Queries        int           `json:"queries"`
	UplinkMsgs     uint64        `json:"uplink_msgs"`
	DownlinkMsgs   uint64        `json:"downlink_msgs"`
	BroadcastMsgs  uint64        `json:"broadcast_msgs"`
	UplinkBytes    uint64        `json:"uplink_bytes"`
	DownlinkBytes  uint64        `json:"downlink_bytes"`
	BroadcastBytes uint64        `json:"broadcast_bytes"`
	BusyTime       time.Duration `json:"busy_ns"`
	// TicksSkipped counts the evaluation intervals that passed without an
	// evaluation because an earlier one overran.
	TicksSkipped uint64 `json:"ticks_skipped"`
	// Installs counts the monitor installs sent, by what requested them.
	Installs InstallCounts `json:"installs"`
}

// InstallCounts counts a server's monitor installs by cause: a query's
// first install, horizon expiry, a drained or overflowing answer buffer, a
// new query track, fewer than k objects inside, and the periodic resync.
type InstallCounts = core.InstallCounts

// Stats returns current operational counters.
func (s *serving) Stats() Stats {
	c := s.tcp.Counters()
	return Stats{
		Clients:        s.tcp.ClientCount(),
		Queries:        s.core.QueryCount(),
		UplinkMsgs:     c.Sent(metrics.Uplink),
		DownlinkMsgs:   c.Sent(metrics.Downlink),
		BroadcastMsgs:  c.Sent(metrics.Broadcast),
		UplinkBytes:    c.SentBytes(metrics.Uplink),
		DownlinkBytes:  c.SentBytes(metrics.Downlink),
		BroadcastBytes: c.SentBytes(metrics.Broadcast),
		BusyTime:       s.core.BusyTime(),
		TicksSkipped:   s.skipped.Load(),
		Installs:       s.core.Installs(),
	}
}

// ClientOptions configures a deployed object or query client. The world,
// grid, tick interval, and protocol settings must match the servers': a
// client of a federation derives the strip partition from the world and
// grid to dial the node owning its position.
type ClientOptions struct {
	World Rect
	// GridCols/GridRows define the broadcast cell layout (default 64×64).
	GridCols, GridRows int
	TickInterval       time.Duration
	Protocol           Protocol
}

func (o ClientOptions) withDefaults() (ClientOptions, error) {
	if o.World == (Rect{}) {
		return o, fmt.Errorf("dmknn: ClientOptions.World is required")
	}
	defaultLayout(&o.GridCols, &o.GridRows, &o.TickInterval)
	return o, nil
}

// clientAgent is what the connection and the tick loop need of a
// protocol agent.
type clientAgent interface {
	transport.ClientHandler
	Tick(model.Tick)
}

// client is the part of a deployed client that does not depend on its
// kind: the connection the agent sends through, and the goroutine that
// ticks the agent.
type client struct {
	conn *fedConn
	// agent is set after the connection exists; the receive loop may
	// deliver broadcasts before then, which are safely dropped (any
	// missed install is re-broadcast within a horizon).
	agent  atomic.Pointer[clientAgent]
	ticker *time.Ticker
	done   chan struct{}
	wg     sync.WaitGroup
}

// start connects to the nodes at addrs, has build make the agent that
// sends through the connection, and ticks it until stop. An object client
// with more than one node to choose from follows its own position across
// strip boundaries.
func (c *client) start(addrs []string, id model.ObjectID, pos func() Point, opts ClientOptions, object bool,
	build func(core.Config, core.AgentDeps) (clientAgent, error)) error {
	opts, err := opts.withDefaults()
	if err != nil {
		return err
	}
	at := func() geo.Point { return pos().internal() }
	conn, err := newFedConn(addrs, id, at, opts, object && len(addrs) > 1,
		transport.ClientHandlerFunc(func(m protocol.Message) {
			if a := c.agent.Load(); a != nil {
				(*a).HandleServerMessage(m)
			}
		}),
		func() {
			if a := c.agent.Load(); a != nil {
				if q, ok := (*a).(*core.QueryAgent); ok {
					q.Reattach()
				}
			}
		})
	if err != nil {
		return err
	}
	c.conn = conn
	now := wallClock(opts.TickInterval)
	agent, err := build(opts.Protocol.internal().WithWorldDefault(opts.World.internal()), core.AgentDeps{
		ID:           id,
		Side:         conn,
		Now:          now,
		Pos:          at,
		DT:           opts.TickInterval.Seconds(),
		LatencyTicks: latencyTicks(len(addrs)),
	})
	if err != nil {
		conn.Close()
		return err
	}
	c.agent.Store(&agent)
	c.ticker = time.NewTicker(opts.TickInterval)
	c.done = make(chan struct{})
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-c.done:
				return
			case <-c.ticker.C:
				agent.Tick(now())
			}
		}
	}()
	return nil
}

// stop ends the tick loop and disconnects.
func (c *client) stop() error {
	close(c.done)
	c.ticker.Stop()
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

// ObjectClient runs the object-side protocol agent against a deployed
// server: it connects, answers probes, and transmits crossing events,
// reading its own position from the supplied callback.
type ObjectClient struct{ c client }

// DialObject connects object id to a deployed server: addrs lists every
// node's client address in node-id order, one address for ListenAndServe.
// With more than one node the client attaches to the node owning its
// position and follows it across strip boundaries. pos is the client's
// position sensor. With one node it is called only from the agent's tick
// loop; with more, also from the connection's supervisor, so it must then
// be safe for concurrent use.
func DialObject(addrs []string, id ObjectID, pos func() Point, opts ClientOptions) (*ObjectClient, error) {
	oc := &ObjectClient{}
	err := oc.c.start(addrs, model.ObjectID(id), pos, opts, true, func(cfg core.Config, deps core.AgentDeps) (clientAgent, error) {
		return core.NewObjectAgent(cfg, deps)
	})
	if err != nil {
		return nil, err
	}
	return oc, nil
}

// Close stops the agent and disconnects.
func (oc *ObjectClient) Close() error { return oc.c.stop() }

// QueryClient runs the focal-device protocol agent for one continuous
// query: it registers the query, keeps the server's track of the focal
// point fresh, and receives answer updates.
type QueryClient struct {
	c     client
	query *core.QueryAgent
}

// DialQuery connects a focal client, registers a k-NN query, and invokes
// onAnswer (may be nil) for every answer change. addrs is as in
// DialObject. The query registers at the node owning the focal position;
// when its monitor migrates across a strip boundary, the new home
// redirects this client. After a lost connection the client redials and
// registers the query again. clientID must be unique among all connected
// clients (objects and queries share the id space); pos and vel are the
// focal device's sensors.
func DialQuery(addrs []string, clientID ObjectID, query QueryID, k int,
	pos func() Point, vel func() Vector, onAnswer func(Answer),
	opts ClientOptions) (*QueryClient, error) {
	return dialQuery(addrs, clientID,
		model.QuerySpec{ID: model.QueryID(query), K: k},
		pos, vel, onAnswer, opts)
}

// dialQuery's agent registers spec at the focal position pos reports.
func dialQuery(addrs []string, clientID ObjectID, spec model.QuerySpec,
	pos func() Point, vel func() Vector, onAnswer func(Answer),
	opts ClientOptions) (*QueryClient, error) {
	qc := &QueryClient{}
	err := qc.c.start(addrs, model.ObjectID(clientID), pos, opts, false, func(cfg core.Config, deps core.AgentDeps) (clientAgent, error) {
		agent, err := core.NewQueryAgent(cfg, spec, core.QueryAgentDeps{
			AgentDeps: deps,
			Vel:       func() geo.Vector { return vel().internal() },
		})
		if err != nil {
			return nil, err
		}
		if onAnswer != nil {
			agent.OnAnswer = func(a model.Answer) { onAnswer(fromAnswer(a)) }
		}
		qc.query = agent
		return agent, nil
	})
	if err != nil {
		return nil, err
	}
	return qc, nil
}

// DialRange connects a focal client and registers a continuous
// range-monitoring query: the answer is every object within radius meters
// of the moving focal point. Other parameters are as in DialQuery.
func DialRange(addrs []string, clientID ObjectID, query QueryID, radius float64,
	pos func() Point, vel func() Vector, onAnswer func(Answer),
	opts ClientOptions) (*QueryClient, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("dmknn: non-positive range %v", radius)
	}
	return dialQuery(addrs, clientID,
		model.QuerySpec{ID: model.QueryID(query), Range: radius},
		pos, vel, onAnswer, opts)
}

// Answer returns the latest answer received from the server.
func (qc *QueryClient) Answer() Answer { return fromAnswer(qc.query.Answer()) }

// Close deregisters the query and disconnects.
func (qc *QueryClient) Close() error {
	qc.query.Deregister()
	// Give the deregister frame a moment on the wire before tearing the
	// connection down; a lost deregister is healed by the server's
	// monitor hygiene but costs a few stray reports.
	time.Sleep(10 * time.Millisecond)
	return qc.c.stop()
}
