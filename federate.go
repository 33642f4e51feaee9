package dmknn

// This file is the multi-process federation surface: one ListenAndServeNode
// per process runs one node of a dknnd cluster (a cluster.Member over a
// nettcp radio and a cluster.TCPLink), and fedConn is every deployed
// client's connection, to a standalone server or to a federation, whose
// clients follow their position across strip boundaries — redialing the
// owning node on their own initiative (objects track the partition) or on
// a NodeRedirect from a server (queries follow their migrating monitor).

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
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// FederationOptions configures one node of a multi-process federation.
// The embedded ServerOptions must be identical on every node (the world
// and grid define the shared partition), apart from Trace and IdleReap,
// and the address slices must list every node in id order.
type FederationOptions struct {
	// ServerOptions holds the settings a node shares with a standalone
	// server, with the same defaults. Shards must stay 0 or 1: a node
	// runs one engine.
	ServerOptions

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
	// silent for 3 heartbeats is redialed). The peer link derives its
	// dial backoff and write timeout from it.
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
}

func (o FederationOptions) withDefaults() (FederationOptions, error) {
	var err error
	if o.ServerOptions, err = o.ServerOptions.withDefaults(); err != nil {
		return o, err
	}
	if o.Shards > 1 {
		return o, fmt.Errorf("dmknn: a federation node runs one engine, not %d shards", o.Shards)
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
		LatencyTicks:   latencyTicks(len(opts.PeerAddrs)),
		Trace:          opts.Trace,
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
	s.serve(opts.ServerOptions)
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
		LocalQueries:   s.member.QueryCount(),
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
// Client connection

// fedConn is a deployed client's connection: a transport.ClientSide
// facade over whichever node currently owns the client's position, the
// only node when the server is a standalone one. It re-dials on connection
// death (with retries at tick cadence, surviving a server or node restart),
// on NodeRedirect downlinks, and — for objects of a federation, which may
// be legitimately silent — on its own observation that the position
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
	// redialed runs after a dead connection was replaced: the serving
	// side purged the client's state with it, or lost it in a restart.
	redialed func()

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
	opts ClientOptions, track bool, h transport.ClientHandler, redialed func()) (*fedConn, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("dmknn: no server address")
	}
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
		redialed: redialed,
		curNode:  -1,
		kick:     make(chan int, 4),
		done:     make(chan struct{}),
	}
	// Dial the owner of the starting position; fall back to any node
	// (attachment heals through redirects once traffic flows).
	owner := f.owner()
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
		return nil, fmt.Errorf("dmknn: no server node reachable: %w", firstErr)
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

// owner returns the node owning the client's position under the current
// map. With one node that is node 0, and the position sensor is not read:
// a standalone client's sensor is read only from its tick loop.
func (f *fedConn) owner() int {
	if len(f.addrs) == 1 {
		return 0
	}
	p := f.pos()
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
				if owner := f.owner(); owner != curNode {
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
	if old == nil {
		// Detached since a connection died: this attachment is the redial.
		f.redialed()
		return
	}
	old.Close()
}

// redial re-attaches after a dead connection (server or node crash or
// restart): aim at the position's owner and keep trying at tick cadence.
func (f *fedConn) redial() {
	owner := f.owner()
	cl, err := nettcp.Dial(f.addrs[owner], f.id, transport.ClientHandlerFunc(f.dispatch))
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		if err == nil {
			cl.Close()
		}
		return
	}
	if old := f.cur; old != nil {
		f.cur = nil
		go old.Close() // fully dead already; Close only reaps the loop
	}
	if err == nil {
		f.cur, f.curNode = cl, owner
	}
	f.mu.Unlock()
	if err == nil {
		f.redialed()
	}
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
