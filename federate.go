package dmknn

// This file is the multi-process federation surface: one ListenAndServeNode
// per process runs one node of a dknnd cluster (a cluster.Member over a
// nettcp radio and a cluster.TCPLink), and DialObjectCluster/
// DialQueryCluster connect clients that follow their position across
// strip boundaries — redialing the owning node on their own initiative
// (objects track the static partition) or on a NodeRedirect from a
// server (queries follow their migrating monitor).

import (
	"fmt"
	"sync"
	"time"

	"dmknn/internal/balance"
	"dmknn/internal/cluster"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/nettcp"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// FederationOptions configures one node of a multi-process federation.
// World, grid, tick, speed, and protocol settings must be identical on
// every node (they define the shared partition), and the address slices
// must list every node in id order.
type FederationOptions struct {
	// World, grid, tick, speeds, and protocol settings as in
	// ServerOptions (same defaults).
	World          Rect
	GridCols       int
	GridRows       int
	TickInterval   time.Duration
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	Protocol       Protocol

	// Node is this process's node id in [0, len(PeerAddrs)).
	Node int
	// PeerAddrs holds every node's inter-node (link) listen address,
	// indexed by node id. len(PeerAddrs) is the cluster size: the world
	// is divided into that many column strips.
	PeerAddrs []string
	// ClientAddrs holds every node's client listen address, indexed by
	// node id; this node listens on ClientAddrs[Node], and redirects
	// carry the others to mis-attached clients.
	ClientAddrs []string

	// Heartbeat is the peer keepalive cadence (default 500ms; a peer
	// silent for 3 heartbeats is redialed).
	Heartbeat time.Duration
	// BalanceInterval, when > 0, enables adaptive partitioning with a
	// decision at most every that many ticks: node 0 coordinates
	// load-aware column moves between adjacent strips, distributed as
	// versioned partition updates. All nodes of one federation must agree
	// on this setting (enabled or not).
	BalanceInterval int
	// BalanceMinGain is the minimum relative load reduction a column move
	// must promise (default 0.05); only meaningful with BalanceInterval.
	BalanceMinGain float64
	// IdleReap, when > 0, evicts client connections with no inbound
	// frame for this long. Off by default: objects with no monitors are
	// legitimately silent indefinitely on TCP.
	IdleReap time.Duration
	// Trace, when set, receives the node's protocol and federation
	// events (stamped with the node id). Must be safe for concurrent
	// use; obs.Recorder is.
	Trace obs.Sink
}

func (o FederationOptions) withDefaults() (FederationOptions, error) {
	if o.World == (Rect{}) {
		return o, fmt.Errorf("dmknn: FederationOptions.World is required")
	}
	if len(o.PeerAddrs) < 1 {
		return o, fmt.Errorf("dmknn: FederationOptions.PeerAddrs is required")
	}
	if len(o.ClientAddrs) != len(o.PeerAddrs) {
		return o, fmt.Errorf("dmknn: %d client addresses for %d nodes", len(o.ClientAddrs), len(o.PeerAddrs))
	}
	if o.Node < 0 || o.Node >= len(o.PeerAddrs) {
		return o, fmt.Errorf("dmknn: node %d outside [0,%d)", o.Node, len(o.PeerAddrs))
	}
	if o.GridCols == 0 {
		o.GridCols = 64
	}
	if o.GridRows == 0 {
		o.GridRows = 64
	}
	if o.TickInterval == 0 {
		o.TickInterval = time.Second
	}
	if o.MaxObjectSpeed == 0 {
		o.MaxObjectSpeed = 30
	}
	if o.MaxQuerySpeed == 0 {
		o.MaxQuerySpeed = 30
	}
	return o, nil
}

// NodeServer is one running node of a deployed federation.
type NodeServer struct {
	serving
	node   int
	link   *cluster.TCPLink
	member *cluster.Member
}

// ListenAndServeNode starts one federation node: the client endpoint on
// ClientAddrs[Node], the peer link on PeerAddrs[Node], and the tick
// loop. Start every node of the cluster; peers reconnect with backoff,
// so start order does not matter.
func ListenAndServeNode(opts FederationOptions) (*NodeServer, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	world := opts.World.internal()
	geom := grid.NewGeometry(world, opts.GridCols, opts.GridRows)
	part, err := cluster.NewPartition(geom, len(opts.PeerAddrs))
	if err != nil {
		return nil, err
	}
	now := wallClock(opts.TickInterval)
	tcp, err := nettcp.Listen(opts.ClientAddrs[opts.Node], geom)
	if err != nil {
		return nil, err
	}
	link, err := cluster.NewTCPLink(cluster.TCPConfig{
		Node:      opts.Node,
		Addrs:     opts.PeerAddrs,
		Heartbeat: opts.Heartbeat,
		Now:       now,
	})
	if err != nil {
		tcp.Close()
		return nil, err
	}
	cfg := opts.Protocol.internal().WithWorldDefault(world)
	member, err := cluster.NewMember(part, opts.Node, cfg, cluster.MemberDeps{
		Link:           link,
		Radio:          tcp.Side(),
		ClientAddrs:    opts.ClientAddrs,
		Now:            now,
		DT:             opts.TickInterval.Seconds(),
		MaxObjectSpeed: opts.MaxObjectSpeed,
		MaxQuerySpeed:  opts.MaxQuerySpeed,
		// A cross-boundary probe pays the radio round trip plus a link
		// hop each way: budget one extra tick over the single-node bound.
		LatencyTicks: 2,
		Trace:        opts.Trace,
	})
	if err != nil {
		link.Close()
		tcp.Close()
		return nil, err
	}
	if opts.BalanceInterval > 0 {
		member.EnableBalancer(balance.Config{
			IntervalTicks: opts.BalanceInterval,
			MinGain:       opts.BalanceMinGain,
		})
	}
	s := &NodeServer{
		serving: serving{tcp: tcp, core: member},
		node:    opts.Node,
		link:    link,
		member:  member,
	}
	if opts.IdleReap > 0 {
		s.housekeep = func() { tcp.ReapIdle(opts.IdleReap) }
	}
	s.serve(opts.TickInterval)
	return s, nil
}

// Node returns this server's node id.
func (s *NodeServer) Node() int { return s.node }

// PeerAddr returns the inter-node listen address.
func (s *NodeServer) PeerAddr() string { return s.link.Addr().String() }

// PeersUp returns how many peer link sessions are currently established
// (out of len(PeerAddrs)-1).
func (s *NodeServer) PeersUp() int { return s.link.ConnectedCount() }

// Healthy reports whether every peer link session is established.
func (s *NodeServer) Healthy() bool {
	return s.link.ConnectedCount() == s.member.Partition().Nodes()-1
}

// NodeStats is an operational snapshot of one federation node: the
// single-server counters plus the federation-level ones.
type NodeStats struct {
	Stats
	Node           int    `json:"node"`
	PeersUp        int    `json:"peers_up"`
	Attached       int    `json:"attached"`
	LocalQueries   int    `json:"local_queries"`
	ObjectHandoffs uint64 `json:"object_handoffs"`
	QueryHandoffs  uint64 `json:"query_handoffs"`
	RelayDrops     uint64 `json:"relay_drops"`
	Redirects      uint64 `json:"redirects"`
	Evictions      uint64 `json:"evictions"`
	LinkSent       uint64 `json:"link_sent"`
	LinkDelivered  uint64 `json:"link_delivered"`
	LinkDropped    uint64 `json:"link_dropped"`
	LinkSentBytes  uint64 `json:"link_sent_bytes"`
	// Adaptive partitioning (all zero when the balancer is off; the
	// decision counters are non-zero only on the coordinator).
	PartitionVersion uint64 `json:"partition_version"`
	OwnedColumns     int    `json:"owned_columns"`
	ColumnMoves      uint64 `json:"column_moves"`
	BalanceDecisions uint64 `json:"balance_decisions"`
	BalanceMoves     uint64 `json:"balance_moves"`
	BalanceSplits    uint64 `json:"balance_splits"`
	BalanceMerges    uint64 `json:"balance_merges"`
}

// Stats returns current operational counters.
func (s *NodeServer) Stats() NodeStats {
	c := s.tcp.Counters()
	fed := s.member.Stats()
	ls := s.link.Stats()
	bs := s.member.BalancerStats()
	return NodeStats{
		Stats:          s.serving.Stats(),
		Node:           s.node,
		PeersUp:        s.link.ConnectedCount(),
		Attached:       s.member.AttachedCount(),
		LocalQueries:   s.member.LocalQueries(),
		ObjectHandoffs: fed.ObjectHandoffs,
		QueryHandoffs:  fed.QueryHandoffs,
		RelayDrops:     fed.RelayDrops,
		Redirects:      s.member.Redirects(),
		Evictions:      c.Evictions(),
		LinkSent:       ls.Sent,
		LinkDelivered:  ls.Delivered,
		LinkDropped:    ls.Dropped,
		LinkSentBytes:  ls.SentBytes,

		PartitionVersion: s.member.PartitionVersion(),
		OwnedColumns:     s.member.OwnedColumns(),
		ColumnMoves:      fed.ColumnMoves,
		BalanceDecisions: bs.Decisions,
		BalanceMoves:     bs.Moves,
		BalanceSplits:    bs.Splits,
		BalanceMerges:    bs.Merges,
	}
}

// Close stops the tick loop, the peer link, and the client endpoint.
func (s *NodeServer) Close() error {
	s.halt()
	lerr := s.link.Close()
	terr := s.closeEndpoint()
	if terr != nil {
		return terr
	}
	return lerr
}

// ---------------------------------------------------------------------------
// Federation clients

// FederationClientOptions configures a client of a multi-process
// federation. World, grid, tick, and protocol settings must match the
// servers' — clients derive the strip partition from them to dial the
// node owning their position, the TCP stand-in for positional radio.
type FederationClientOptions struct {
	World        Rect
	GridCols     int
	GridRows     int
	TickInterval time.Duration
	Protocol     Protocol
}

func (o FederationClientOptions) withDefaults() (FederationClientOptions, error) {
	if o.World == (Rect{}) {
		return o, fmt.Errorf("dmknn: FederationClientOptions.World is required")
	}
	if o.GridCols == 0 {
		o.GridCols = 64
	}
	if o.GridRows == 0 {
		o.GridRows = 64
	}
	if o.TickInterval == 0 {
		o.TickInterval = time.Second
	}
	return o, nil
}

// fedConn is a client connection to a federation: a transport.ClientSide
// facade over whichever node currently owns the client's position. It
// re-dials on NodeRedirect downlinks, on connection death (with retries
// at tick cadence, surviving a node restart), and — for objects, which
// may be legitimately silent — on its own observation that the position
// crossed a strip boundary, flushing a final LocationReport on the old
// connection first so the old node hands the state off before the
// disconnect.
//
// The partition it derives dial targets from starts at the even static
// division and follows the versioned PartitionUpdate broadcasts of a
// balance-enabled federation; a client that misses an update aims at a
// stale owner and is healed by NodeRedirect, so the update is a routing
// optimization, never a correctness requirement.
type fedConn struct {
	id       model.ObjectID
	addrs    []string
	geom     grid.Geometry
	pos      func() geo.Point
	now      func() model.Tick
	interval time.Duration
	track    bool // self-initiated boundary migration (objects)
	handler  transport.ClientHandler

	mu      sync.Mutex
	part    cluster.Partition
	cur     *nettcp.Client
	curNode int
	closed  bool

	kick chan int // redirect target node ids
	done chan struct{}
	wg   sync.WaitGroup
}

func newFedConn(addrs []string, id model.ObjectID, pos func() geo.Point,
	opts FederationClientOptions, track bool, h transport.ClientHandler) (*fedConn, error) {
	geom := grid.NewGeometry(opts.World.internal(), opts.GridCols, opts.GridRows)
	part, err := cluster.NewPartition(geom, len(addrs))
	if err != nil {
		return nil, err
	}
	f := &fedConn{
		id:       id,
		addrs:    addrs,
		geom:     geom,
		part:     part,
		pos:      pos,
		now:      wallClock(opts.TickInterval),
		interval: opts.TickInterval,
		track:    track,
		handler:  h,
		curNode:  -1,
		kick:     make(chan int, 4),
		done:     make(chan struct{}),
	}
	// Dial the owner of the starting position; fall back to any node
	// (attachment heals through redirects once traffic flows).
	owner := part.NodeOf(pos())
	order := []int{owner}
	for i := range addrs {
		if i != owner {
			order = append(order, i)
		}
	}
	var firstErr error
	for _, n := range order {
		cl, err := nettcp.Dial(addrs[n], id, transport.ClientHandlerFunc(f.dispatch))
		if err == nil {
			f.cur, f.curNode = cl, n
			break
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if f.cur == nil {
		return nil, fmt.Errorf("dmknn: no federation node reachable: %w", firstErr)
	}
	f.wg.Add(1)
	go f.supervise()
	return f, nil
}

// dispatch fans received frames to the application handler, intercepting
// the federation control frames (redirects and partition updates).
func (f *fedConn) dispatch(m protocol.Message) {
	switch v := m.(type) {
	case protocol.NodeRedirect:
		select {
		case f.kick <- int(v.Node):
		default: // a redirect is already queued; one is enough
		}
		return
	case protocol.PartitionUpdate:
		f.applyPartitionUpdate(v)
		return
	}
	f.handler.HandleServerMessage(m)
}

// applyPartitionUpdate installs a newer map so future dial decisions use
// the current strips. A corrupt or stale update is ignored.
func (f *fedConn) applyPartitionUpdate(u protocol.PartitionUpdate) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if u.Version <= f.part.Version() {
		return
	}
	owners := make([]int, len(u.Owners))
	for i, o := range u.Owners {
		owners[i] = int(o)
	}
	if np, err := cluster.PartitionFromOwners(f.geom, owners, f.part.Nodes(), u.Version); err == nil {
		f.part = np
	}
}

// owner returns the node owning p under the current map.
func (f *fedConn) owner(p geo.Point) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.part.NodeOf(p)
}

func (f *fedConn) current() (*nettcp.Client, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur, f.curNode
}

// supervise keeps the connection attached to the owning node for the
// client's lifetime.
func (f *fedConn) supervise() {
	defer f.wg.Done()
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		cur, curNode := f.current()
		var connDied <-chan struct{}
		if cur != nil {
			connDied = cur.Done()
		}
		select {
		case <-f.done:
			return
		case n := <-f.kick:
			// The server knows better than our partition arithmetic (it
			// already handed our state to n); no flush needed.
			if n != curNode {
				f.migrate(n, false)
			}
		case <-connDied:
			f.redial()
		case <-t.C:
			if cur == nil {
				f.redial()
				continue
			}
			if f.track {
				if owner := f.owner(f.pos()); owner != curNode {
					f.migrate(owner, true)
				}
			}
		}
	}
}

// migrate swaps the attachment to another node. flush sends a final
// LocationReport on the old connection first: its kinematics prove the
// boundary crossing to the old node, which hands our state to the owner
// BEFORE seeing the disconnect — so the disconnect purges nothing.
func (f *fedConn) migrate(to int, flush bool) {
	if to < 0 || to >= len(f.addrs) {
		return
	}
	cl, err := nettcp.Dial(f.addrs[to], f.id, transport.ClientHandlerFunc(f.dispatch))
	if err != nil {
		return // stay put; the next tick or redirect retries
	}
	f.mu.Lock()
	old := f.cur
	if f.closed {
		f.mu.Unlock()
		cl.Close()
		return
	}
	if flush && old != nil {
		old.Uplink(protocol.LocationReport{Object: f.id, Pos: f.pos(), At: f.now()})
	}
	f.cur, f.curNode = cl, to
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// redial re-attaches after a dead connection (node crash or restart):
// aim at the position's owner and keep trying at tick cadence.
func (f *fedConn) redial() {
	owner := f.owner(f.pos())
	cl, err := nettcp.Dial(f.addrs[owner], f.id, transport.ClientHandlerFunc(f.dispatch))
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		if err == nil {
			cl.Close()
		}
		return
	}
	if old := f.cur; old != nil {
		f.cur = nil
		go old.Close() // fully dead already; Close only reaps the loop
	}
	if err != nil {
		return // supervise retries on the next tick
	}
	f.cur, f.curNode = cl, owner
}

// Uplink implements transport.ClientSide. During a re-attachment gap the
// frame is dropped — the protocol is loss-tolerant by design, and the
// state machines heal through reinstalls and resyncs.
func (f *fedConn) Uplink(m protocol.Message) {
	f.mu.Lock()
	cur := f.cur
	f.mu.Unlock()
	if cur != nil {
		cur.Uplink(m)
	}
}

// Close detaches permanently.
func (f *fedConn) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	cur := f.cur
	f.cur = nil
	f.mu.Unlock()
	close(f.done)
	var err error
	if cur != nil {
		err = cur.Close()
	}
	f.wg.Wait()
	return err
}

var _ clientConn = (*fedConn)(nil)

// dialer reaches a federation whose nodes' client addresses are addrs;
// track is as in fedConn.
func (o FederationClientOptions) dialer(addrs []string, id model.ObjectID, pos func() Point, track bool) clientDialer {
	return clientDialer{
		dial: func(h transport.ClientHandler) (clientConn, error) {
			return newFedConn(addrs, id, func() geo.Point { return pos().internal() }, o, track, h)
		},
		latency: 2, // match the federation's delivery bound
	}
}

// DialObjectCluster connects object id to a multi-process federation:
// addrs lists every node's client address in node-id order. The client
// attaches to the node owning its position and follows it across strip
// boundaries. pos is the client's position sensor.
func DialObjectCluster(addrs []string, id ObjectID, pos func() Point, opts FederationClientOptions) (*ObjectClient, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg := opts.Protocol.internal().WithWorldDefault(opts.World.internal())
	return startObject(model.ObjectID(id), pos, cfg, opts.TickInterval,
		opts.dialer(addrs, model.ObjectID(id), pos, true))
}

// DialQueryCluster connects a focal client to a multi-process federation
// and registers a k-NN query. The query registers at the node owning the
// focal position; when the monitor migrates across a strip boundary, the
// new home redirects this client transparently. Parameters are as in
// DialQuery, with addrs listing every node's client address in node-id
// order.
func DialQueryCluster(addrs []string, clientID ObjectID, query QueryID, k int,
	pos func() Point, vel func() Vector, onAnswer func(Answer),
	opts FederationClientOptions) (*QueryClient, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg := opts.Protocol.internal().WithWorldDefault(opts.World.internal())
	return startQuery(model.ObjectID(clientID), model.QuerySpec{ID: model.QueryID(query), K: k},
		pos, vel, onAnswer, cfg, opts.TickInterval,
		opts.dialer(addrs, model.ObjectID(clientID), pos, false))
}
