package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"dmknn/internal/balance"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// MemberDeps wires a Member to its environment.
type MemberDeps struct {
	// Link carries inter-node messages (a TCPLink in a real deployment).
	// The Member installs itself as the delivery handler.
	Link Link
	// Radio is the node's client-facing send surface (the nettcp/netudp
	// server side). Broadcasts reach only the clients attached to THIS
	// node, which is why attachment must converge to the position owner
	// (see NodeRedirect below).
	Radio transport.ServerSide
	// ClientAddrs holds every node's client listen address, indexed by
	// node id; NodeRedirect downlinks carry them to steer mis-attached
	// clients to their position's owner.
	ClientAddrs []string
	// Now is the shared clock (wall-derived; the processes of one
	// federation must be clock-synchronized to a fraction of a tick).
	Now func() model.Tick
	// The remaining fields mirror core.ServerDeps. LatencyTicks must
	// budget the radio round trip plus one link hop (2 in a deployment).
	DT             float64
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	LatencyTicks   int
	// Trace, when non-nil, receives lifecycle events stamped with this
	// node's id. Must be safe for concurrent use.
	Trace obs.Sink
}

// Member is ONE node of the federation and the federation's state
// machine: it owns a core.Server for its strip of the partition and
// stitches it to the other nodes over the Link with protocol kinds 16–22,
// plus NodeRedirect on the client wire. A deployment runs one Member per
// process over a TCPLink (dknnd -node); the experiments run N of them in
// one process under a Cluster over a MemLink. Besides the Link, the two
// differ only in the directory the member is built with.
//
// On a real socket the radio is not positional. A wireless broadcast
// reaches whatever is physically inside the cells; a nettcp broadcast
// reaches whatever is CONNECTED. So a client must stay attached to the
// node owning its position, and three mechanisms converge it there:
//
//   - clients of a federation derive the owner from the static partition
//     and dial it directly (and re-dial when their own movement crosses a
//     strip boundary, flushing a final report on the old connection so
//     the old node hands their state off before the disconnect);
//   - any uplink whose kinematics place the sender in another node's
//     strip triggers an ObjectHandoff to the owner plus a NodeRedirect
//     downlink carrying the owner's client address;
//   - a query monitor that migrates (QueryHandoff) redirects its focal
//     client to the new home in the same breath.
//
// A disconnect purges client state only when this node still believes it
// is the client's home; a redirect-induced disconnect (home already
// flipped) purges nothing, so live state is never destroyed by routine
// re-attachment.
//
// All state transitions of a deployed member run under one mutex: the
// exported entry points (radio uplinks, link deliveries, the tick) lock
// it and call the unexported internals, and the inner server's send
// callbacks (memberSide) run while it is held. Sends themselves (radio,
// link) are non-blocking-by-deadline, so the lock is never held
// indefinitely. A Cluster calls the internals directly from its serial
// phases and never takes the mutex.
type Member struct {
	part Partition
	id   int
	deps MemberDeps

	mu     sync.Mutex
	server *core.Server

	// dir answers who serves a client. bel is the same value when the
	// member was built by NewMember, for the radio callbacks that only a
	// connection-oriented medium makes; nil under a Cluster.
	dir directory
	bel *belief

	// local marks queries homed here (this node runs their monitors).
	local map[model.QueryID]bool
	// remote maps queries whose broadcasts this node rebroadcast to the
	// home node to relay reports to. Entries persist until an explicit
	// cancel: a Leave report can arrive long after the region stopped
	// intersecting this strip, and it must still find its way home.
	remote map[model.QueryID]int
	// spread tracks, per local query, every node a broadcast was ever
	// forwarded to, so teardown (cancel, disconnect, migration) reaches
	// all of them even when the current region no longer intersects.
	spread map[model.QueryID]map[int]bool
	// aware tracks, per client homed here, the remote queries its
	// reports were relayed for (query → home node): the state an object
	// handoff transfers, and the purge list when the client disconnects.
	aware map[model.ObjectID]map[model.QueryID]int
	// awareByQ is the reverse index of aware, for cancel-time purging.
	awareByQ map[model.QueryID]map[model.ObjectID]bool
	// pending holds exported-but-unacked query handoffs for retry; a
	// lossy link must not be able to destroy a monitor state machine.
	// retryGap is the resend interval in ticks: one tick of real time
	// covers a loopback round trip many times over, a Cluster widens it
	// to its MemLink's round trip.
	pending  map[model.QueryID]*pendingHandoff
	retryGap model.Tick

	stats     Stats
	redirects uint64

	// Adaptive partitioning. Every balance-enabled node reports its load
	// to the coordinator and applies the versioned maps it distributes;
	// the decision engine and replication bookkeeping live only on the
	// coordinator (node 0).
	balanceOn    bool
	bal          *balance.Balancer
	busyBase     time.Duration    // own busy time at the last decision window
	peerLoads    []nodeLoadSample // coordinator: latest NodeLoad per node
	peerBusyBase []uint64         // coordinator: cumulative busy-µs at window start
	pendingPart  *pendingPartition
}

// directory is where a member looks up, and records, which node serves a
// client. It is the one difference between the two deployments of the
// state machine: in one process a handoff flips routing for every node at
// once and a client is reachable wherever it is homed; across processes
// each node holds a private belief plus the set of clients connected to
// its own radio.
type directory interface {
	// home returns the node serving id, if any is known.
	home(id model.ObjectID) (node int, known bool)
	// setHome records a handoff initiated here: id is now served by node.
	setHome(id model.ObjectID, node int)
	// adopt is called when a handoff delivers id's state to this node; it
	// returns the node now serving id.
	adopt(id model.ObjectID) int
	// here reports whether id is reachable on this node's own radio.
	here(id model.ObjectID) bool
}

// belief is one process's private directory.
type belief struct {
	self int
	// homes is this node's belief of which node serves each known client.
	homes map[model.ObjectID]int
	// attach marks clients currently connected to this node's radio.
	attach map[model.ObjectID]bool
}

func (b *belief) home(id model.ObjectID) (int, bool)  { h, ok := b.homes[id]; return h, ok }
func (b *belief) setHome(id model.ObjectID, node int) { b.homes[id] = node }
func (b *belief) here(id model.ObjectID) bool         { return b.attach[id] }

// adopt takes the client: the sender routed by its reported position,
// which this node owns. If it has already moved on, its next report
// triggers the next hop of the chain.
func (b *belief) adopt(id model.ObjectID) int {
	b.homes[id] = b.self
	return b.self
}

// sharedHomes is the directory of a Cluster's members: one authoritative
// map, written at handoff initiation and read by every node. A client the
// map has never seen is served by node 0.
type sharedHomes struct {
	self  int
	homes map[model.ObjectID]int
}

func (s sharedHomes) home(id model.ObjectID) (int, bool)  { return s.homes[id], true }
func (s sharedHomes) setHome(id model.ObjectID, node int) { s.homes[id] = node }
func (s sharedHomes) here(id model.ObjectID) bool         { return s.homes[id] == s.self }

// adopt writes nothing — the sender already flipped the map — and may
// name another node: the client moved on while its state was in flight.
func (s sharedHomes) adopt(id model.ObjectID) int { return s.homes[id] }

type pendingHandoff struct {
	to     int
	msg    protocol.QueryHandoff
	sentAt model.Tick
}

// maxRelayHops bounds uplink forwarding chains between nodes. Two hops
// cover every legitimate route (receiving node → object's position node
// → query's home node); the slack absorbs a handoff racing a relay.
const maxRelayHops = 4

// coordinatorNode is the member that runs the balance decision engine.
const coordinatorNode = 0

// nodeLoadSample is the coordinator's record of one peer's latest
// NodeLoad report (BusyUS cumulative; the coordinator windows it).
type nodeLoadSample struct {
	seen    bool
	version uint64
	pop     int
	queries int
	busyUS  uint64
}

// pendingPartition is an unacked map distribution: the coordinator
// retries the PartitionUpdate to every silent peer and makes no further
// decision until all have confirmed, so moves are strictly serialized
// across the federation.
type pendingPartition struct {
	version uint64
	update  protocol.PartitionUpdate
	acked   []bool
	sentAt  model.Tick
}

// NewMember builds node id of the partition's federation, with a private
// directory, and installs it as the link's delivery consumer. The caller
// attaches it as the radio's server handler and drives Tick/Finalize.
func NewMember(part Partition, id int, cfg core.Config, deps MemberDeps) (*Member, error) {
	b := &belief{
		self:   id,
		homes:  make(map[model.ObjectID]int),
		attach: make(map[model.ObjectID]bool),
	}
	m, err := newMember(part, id, cfg, deps, b)
	if err != nil {
		return nil, err
	}
	m.bel = b
	if ol, ok := deps.Link.(interface {
		OnDeliver(func(from, to int, m protocol.Message))
	}); ok {
		ol.OnDeliver(m.HandleLink)
	}
	return m, nil
}

func newMember(part Partition, id int, cfg core.Config, deps MemberDeps, dir directory) (*Member, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Member{
		part:     part,
		id:       id,
		deps:     deps,
		dir:      dir,
		local:    make(map[model.QueryID]bool),
		remote:   make(map[model.QueryID]int),
		spread:   make(map[model.QueryID]map[int]bool),
		aware:    make(map[model.ObjectID]map[model.QueryID]int),
		awareByQ: make(map[model.QueryID]map[model.ObjectID]bool),
		pending:  make(map[model.QueryID]*pendingHandoff),
		retryGap: 1,
	}
	srv, err := core.NewServer(cfg, core.ServerDeps{
		Side:           memberSide{m},
		Now:            deps.Now,
		DT:             deps.DT,
		MaxObjectSpeed: deps.MaxObjectSpeed,
		MaxQuerySpeed:  deps.MaxQuerySpeed,
		LatencyTicks:   deps.LatencyTicks,
		Trace:          obs.WithNode(deps.Trace, int16(id)),
	})
	if err != nil {
		return nil, err
	}
	m.server = srv
	return m, nil
}

// Node returns this member's node id.
func (m *Member) Node() int { return m.id }

// Partition returns the spatial decomposition (this node's current
// belief when the balancer is enabled).
func (m *Member) Partition() Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.part
}

// EnableBalancer turns on adaptive partitioning for this member. Every
// enabled node reports NodeLoad to the coordinator and stamps its map
// version into peer hellos (so a rejoining stale node is pushed the
// current map); the coordinator additionally runs the decision engine
// and distributes versioned PartitionUpdates, acked by every peer before
// the next move. Call before serving.
func (m *Member) EnableBalancer(cfg balance.Config) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.balanceOn = true
	if m.id == coordinatorNode {
		m.bal = balance.New(cfg)
		m.peerLoads = make([]nodeLoadSample, m.part.Nodes())
		m.peerBusyBase = make([]uint64, m.part.Nodes())
	}
	if vl, ok := m.deps.Link.(interface{ SetVersion(func() uint64) }); ok {
		vl.SetVersion(m.PartitionVersion)
	}
	if hl, ok := m.deps.Link.(interface {
		OnHello(func(peer int, version uint64))
	}); ok {
		hl.OnHello(m.handlePeerHello)
	}
}

// PartitionVersion returns the version of this node's current map.
func (m *Member) PartitionVersion() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.part.Version()
}

// OwnedColumns returns how many grid-cell columns this node's strip
// currently spans.
func (m *Member) OwnedColumns() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, o := range m.part.colOwner {
		if o == m.id {
			n++
		}
	}
	return n
}

// BalancerStats returns the decision engine's counters (all zero on
// non-coordinator nodes and when the balancer is disabled).
func (m *Member) BalancerStats() balance.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bal == nil {
		return balance.Stats{}
	}
	return m.bal.Stats()
}

// Server returns the inner core server (for inspection).
func (m *Member) Server() *core.Server { return m.server }

// Stats returns the federation event counters.
func (m *Member) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Redirects returns how many NodeRedirect downlinks this node has sent.
func (m *Member) Redirects() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.redirects
}

// AttachedCount returns the number of clients attached to this node.
func (m *Member) AttachedCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.bel.attach)
}

// LocalQueries returns how many query monitors are homed at this node.
func (m *Member) LocalQueries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.local)
}

// emit records one federation-level event stamped with this node. All
// call sites run in the serial phases (uplink routing, link delivery,
// migration scan), never inside a Cluster's parallel server ticks.
func (m *Member) emit(e obs.Event) {
	if m.deps.Trace == nil {
		return
	}
	e.At = m.deps.Now()
	e.Node = int16(m.id)
	e.Dir = -1
	m.deps.Trace.Record(e)
}

// ---------------------------------------------------------------------------
// serverCore surface (what the deployment shell drives)

// Tick advances a deployed node one step: balancer duties, retry and
// initiate query migrations, then run the inner server's tick. Link
// traffic needs no flushing — the TCP link delivers push-style from its
// read goroutines.
func (m *Member) Tick(now model.Tick) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.balanceOn {
		if m.id == coordinatorNode {
			m.rebalance(now)
		} else {
			// Report cumulative load to the coordinator; it windows the
			// busy time between decisions.
			m.deps.Link.Send(m.id, coordinatorNode, protocol.NodeLoad{
				Node:       uint16(m.id),
				Version:    m.part.Version(),
				Population: uint32(len(m.bel.attach)),
				Queries:    uint32(len(m.local)),
				BusyUS:     uint64(m.server.BusyTime().Microseconds()),
				At:         now,
			})
		}
	}
	m.migrateQueries(now)
	m.server.Tick(now)
}

// Finalize settles intra-tick probe conversations.
func (m *Member) Finalize(now model.Tick) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.server.Finalize(now)
}

// Answer returns the inner server's current answer for a local query.
func (m *Member) Answer(q model.QueryID) model.Answer { return m.server.Answer(q) }

// QueryCount returns the number of locally homed queries.
func (m *Member) QueryCount() int { return m.server.QueryCount() }

// BusyTime returns the inner server's cumulative tick-processing time.
func (m *Member) BusyTime() time.Duration { return m.server.BusyTime() }

// ---------------------------------------------------------------------------
// Radio uplink handling

// HandleUplink implements transport.ServerHandler for this node's radio:
// every frame from an attached client enters the federation here. A
// client this node has no belief about is taken to be its own.
func (m *Member) HandleUplink(from model.ObjectID, msg protocol.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bel.attach[from] = true
	if _, known := m.bel.homes[from]; !known {
		m.bel.homes[from] = m.id
	}
	m.routeUplink(from, msg, 0)
}

// serves reports whether this node is, to its knowledge, id's home.
func (m *Member) serves(id model.ObjectID) bool {
	home, known := m.dir.home(id)
	return known && home == m.id
}

// routeUplink processes one client uplink at this node, forwarded hops
// times so far. Frames at hops 0 arrived on this node's own radio.
func (m *Member) routeUplink(from model.ObjectID, msg protocol.Message, hops int) {
	// Boundary detection: the client's own report proves it left this
	// node's strip — migrate its connection before processing, so the
	// very report that crossed the boundary is still handled here (no
	// report lost) while everything after routes to the new owner. Only a
	// frame from this node's own radio may do so: a relayed frame's sender
	// belongs to another node's radio, and a relay that was in flight
	// while its sender crossed carries the old position — it would hand
	// the client straight back.
	if pos, vel, at, ok := uplinkKinematics(msg); ok && hops == 0 && m.serves(from) {
		if owner := m.part.NodeOf(pos); owner != m.id {
			m.handoffObject(from, owner, pos, vel, at)
			m.redirect(from, owner)
		}
	}
	if reg, ok := msg.(protocol.QueryRegister); ok {
		// Registrations anchor at the node owning the focal position.
		owner := m.part.NodeOf(reg.Pos)
		if owner != m.id {
			if hops < maxRelayHops {
				m.relay(owner, from, msg, hops)
			}
			if hops == 0 {
				m.dir.setHome(from, owner)
				m.redirect(from, owner)
			}
			return
		}
		m.server.HandleUplink(from, msg)
		if m.server.HasQuery(reg.Query) {
			m.local[reg.Query] = true
		}
		return
	}
	q, ok := uplinkQuery(msg)
	if !ok {
		// Query-less kinds (LocationReport) are not part of this protocol
		// and only matter for the boundary detection above; the local
		// server drops them like the single server.
		m.server.HandleUplink(from, msg)
		return
	}
	switch home, known := m.remote[q]; {
	case m.local[q]:
		m.server.HandleUplink(from, msg)
		if _, gone := msg.(protocol.QueryDeregister); gone {
			m.finishTeardown(q)
		}
	case known:
		if hops >= maxRelayHops {
			m.stats.RelayDrops++
			m.emit(obs.Event{Type: obs.EvRelayDropped, Query: q, Object: from, Kind: msg.Kind()})
			return
		}
		m.relay(home, from, msg, hops)
		// Relayed frames count too: the report that crosses a boundary
		// reaches the client's new home as a relay from the old one.
		if m.serves(from) {
			m.noteAware(from, q, home, msg)
		}
	default:
		// Unknown query: if the report itself names a position in
		// another strip, that node (or its remote table) knows more.
		if pos, _, _, ok := uplinkKinematics(msg); ok && hops < maxRelayHops {
			if owner := m.part.NodeOf(pos); owner != m.id {
				m.relay(owner, from, msg, hops)
				return
			}
		}
		m.stats.RelayDrops++
		m.emit(obs.Event{Type: obs.EvRelayDropped, Query: q, Object: from, Kind: msg.Kind()})
	}
}

// relay forwards a client uplink to another node.
func (m *Member) relay(to int, origin model.ObjectID, msg protocol.Message, hops int) {
	m.deps.Link.Send(m.id, to, protocol.NodeRelay{
		Origin:  origin,
		Hops:    uint8(hops + 1),
		Version: m.part.Version(),
		Inner:   msg,
	})
}

// redirect steers an attached client to the node owning its position.
// The client reconnects there; the disconnect this causes here finds
// home != self and purges nothing. A member without client addresses (a
// positional radio, as under a Cluster) has nobody to steer.
func (m *Member) redirect(id model.ObjectID, to int) {
	if to < 0 || to >= len(m.deps.ClientAddrs) || m.deps.ClientAddrs[to] == "" {
		return
	}
	m.redirects++
	m.deps.Radio.Downlink(id, protocol.NodeRedirect{
		Node: uint16(to),
		Addr: m.deps.ClientAddrs[to],
	})
}

// ---------------------------------------------------------------------------
// Awareness bookkeeping

// noteAware updates the awareness map from a relayed membership report:
// Enter/Exit/Move prove the object carries monitor state for q, Leave
// proves it dropped it.
func (m *Member) noteAware(id model.ObjectID, q model.QueryID, home int, msg protocol.Message) {
	switch msg.(type) {
	case protocol.EnterReport, protocol.ExitReport, protocol.MoveReport:
		m.setAware(id, q, home)
	case protocol.LeaveReport:
		m.clearAware(id, q)
	}
}

func (m *Member) setAware(id model.ObjectID, q model.QueryID, home int) {
	mm := m.aware[id]
	if mm == nil {
		mm = make(map[model.QueryID]int)
		m.aware[id] = mm
	}
	mm[q] = home
	r := m.awareByQ[q]
	if r == nil {
		r = make(map[model.ObjectID]bool)
		m.awareByQ[q] = r
	}
	r[id] = true
}

func (m *Member) clearAware(id model.ObjectID, q model.QueryID) {
	if mm := m.aware[id]; mm != nil {
		delete(mm, q)
		if len(mm) == 0 {
			delete(m.aware, id)
		}
	}
	if r := m.awareByQ[q]; r != nil {
		delete(r, id)
		if len(r) == 0 {
			delete(m.awareByQ, q)
		}
	}
}

// dropAware forgets every remote query the client was aware of.
func (m *Member) dropAware(id model.ObjectID) {
	for q := range m.aware[id] {
		m.clearAware(id, q)
	}
}

// purgeQuery drops every trace of a remote query at this node.
func (m *Member) purgeQuery(q model.QueryID) {
	delete(m.remote, q)
	for id := range m.awareByQ[q] {
		m.clearAware(id, q)
	}
}

// finishTeardown completes a local query's removal after the server
// handled its deregister. An installed monitor already broadcast a
// MonitorCancel through memberSide, which reached every spread node; a
// query deregistered mid-bootstrap (probing, never installed) broadcast
// nothing, so its probe-forward recipients are purged explicitly with a
// state-only cancel (negative region radius: nothing to rebroadcast).
func (m *Member) finishTeardown(q model.QueryID) {
	if m.server.HasQuery(q) {
		return
	}
	for _, peer := range sortedKeys(m.spread[q]) {
		m.deps.Link.Send(m.id, peer, protocol.NodeForward{
			Home:    uint16(m.id),
			Version: m.part.Version(),
			Region:  geo.Circle{R: -1},
			Inner:   protocol.MonitorCancel{Query: q},
		})
	}
	delete(m.spread, q)
	delete(m.local, q)
	delete(m.pending, q)
	// Awareness entries for q may survive from an era when this node
	// relayed for it as a remote (before the monitor migrated here).
	m.purgeQuery(q)
}

// ---------------------------------------------------------------------------
// Object handoff

// handoffObject migrates a client's connection to the node owning pos:
// the directory flips immediately (so routing is consistent even if the
// state transfer is lost) and the accumulated awareness state travels in
// an ObjectHandoff message.
func (m *Member) handoffObject(id model.ObjectID, to int, pos geo.Point, vel geo.Vector, at model.Tick) {
	m.dir.setHome(id, to)
	m.stats.ObjectHandoffs++
	m.emit(obs.Event{Type: obs.EvObjectHandoffBegun, Object: id, Value: float64(to)})
	oh := protocol.ObjectHandoff{Object: id, Pos: pos, Vel: vel, At: at}
	// Awareness accumulated from relays, plus the local queries whose
	// monitors currently involve the object — their home is this node.
	for q, home := range m.aware[id] {
		oh.Aware = append(oh.Aware, protocol.AwareEntry{Query: q, Home: uint16(home)})
	}
	for _, q := range m.server.QueriesInvolving(id) {
		if _, dup := m.aware[id][q]; !dup {
			oh.Aware = append(oh.Aware, protocol.AwareEntry{Query: q, Home: uint16(m.id)})
		}
	}
	slices.SortFunc(oh.Aware, func(a, b protocol.AwareEntry) int {
		return int(a.Query) - int(b.Query)
	})
	// The old copy is gone: the new owner curates it from here.
	m.dropAware(id)
	m.deps.Link.Send(m.id, to, oh)
}

func (m *Member) handleObjectHandoff(v protocol.ObjectHandoff) {
	// The client may have moved on while this transfer was in flight
	// (chained handoff), and the directory may know it: pass the state
	// along to its current home. A shared directory is globally
	// consistent, so this terminates in one step; a private one always
	// adopts.
	if cur := m.dir.adopt(v.Object); cur != m.id {
		m.deps.Link.Send(m.id, cur, v)
		return
	}
	for _, a := range v.Aware {
		// An entry homed here whose query is local resolves through the
		// local table, not a relay; record only true remotes.
		if int(a.Home) == m.id && m.local[a.Query] {
			continue
		}
		m.setAware(v.Object, a.Query, int(a.Home))
	}
}

// ---------------------------------------------------------------------------
// Adaptive partitioning (coordinator decision + replicated application)

// rebalance runs on the coordinator each tick (under the mutex). A
// pending map distribution blocks further decisions — moves serialize
// across the federation — and is retried to every silent peer; otherwise,
// once the interval elapses and every peer has reported a load sample on
// the current map, the engine may propose one column move, which is
// applied locally and distributed as a versioned PartitionUpdate.
func (m *Member) rebalance(now model.Tick) {
	if pp := m.pendingPart; pp != nil {
		if now-pp.sentAt >= 1 {
			pp.sentAt = now
			for peer, acked := range pp.acked {
				if !acked && peer != m.id {
					m.deps.Link.Send(m.id, peer, pp.update)
				}
			}
		}
		return
	}
	if !m.bal.Due(now) {
		return
	}
	loads := make([]balance.Load, m.part.Nodes())
	for i := range loads {
		if i == m.id {
			busy := uint64(m.server.BusyTime().Microseconds())
			loads[i] = balance.Load{
				Population: len(m.bel.attach),
				Queries:    len(m.local),
				BusyUS:     busy - uint64(m.busyBase.Microseconds()),
			}
			continue
		}
		s := m.peerLoads[i]
		if !s.seen || s.version != m.part.Version() {
			return // wait until every peer has reported on this map
		}
		loads[i] = balance.Load{
			Population: s.pop,
			Queries:    s.queries,
			BusyUS:     s.busyUS - m.peerBusyBase[i],
		}
	}
	mv, ok := m.bal.Decide(now, m.part.Owners(), loads)
	// Restart the busy-time windows whether or not a move was proposed.
	m.busyBase = m.server.BusyTime()
	for i := range m.peerLoads {
		if m.peerLoads[i].seen {
			m.peerBusyBase[i] = m.peerLoads[i].busyUS
		}
	}
	if !ok {
		return
	}
	np, err := m.part.MoveColumn(mv.Col, mv.To)
	if err != nil {
		return // defense in depth; the balancer only proposes legal moves
	}
	upd := np.update()
	pp := &pendingPartition{
		version: np.Version(),
		update:  upd,
		acked:   make([]bool, np.Nodes()),
		sentAt:  now,
	}
	pp.acked[m.id] = true
	m.pendingPart = pp
	// The map goes out before it is applied here: applying ships the
	// stranded monitors, and on a FIFO link a peer that imported one
	// while still on the old map would hand it straight back.
	for peer := 0; peer < np.Nodes(); peer++ {
		if peer != m.id {
			m.deps.Link.Send(m.id, peer, upd)
		}
	}
	m.applyPartition(np, now)
}

// applyPartition installs a newer map on this node: routing flips to the
// new strips, the monitors the change stranded bulk-migrate through the
// ordinary retried query-handoff path, and attached clients hear the new
// map so they re-derive their dial targets (a client that misses the
// broadcast is healed by NodeRedirect on its next report).
func (m *Member) applyPartition(np Partition, now model.Tick) {
	m.part = np
	m.stats.ColumnMoves++
	m.emit(obs.Event{Type: obs.EvColumnMoved, Seq: uint32(np.Version())})
	m.migrateOutOfStrip(now)
	m.deps.Radio.Broadcast(worldCircle(m.part.geom.Bounds()), np.update())
}

// migrateOutOfStrip bulk-exports every monitor a partition change left
// outside this node's strip and ships each to its new owner through the
// ordinary query-handoff machinery — retried until acked, re-baselined on
// import — so a column move is exactly as safe as a focal client walking
// across the old boundary.
func (m *Member) migrateOutOfStrip(now model.Tick) {
	exported := m.server.ExportMonitorsWhere(now, func(q model.QueryID, est geo.Point) bool {
		return m.part.NodeOf(est) != m.id
	})
	for _, ex := range exported {
		m.shipMonitor(ex.State, m.part.NodeOf(ex.Est), now)
	}
}

// handlePartitionUpdate applies a distributed map if it is newer than
// this node's, and always acks — duplicates and stale retries must stop
// the coordinator's retry loop even when nothing applies.
func (m *Member) handlePartitionUpdate(from int, v protocol.PartitionUpdate) {
	if v.Version > m.part.Version() {
		owners := make([]int, len(v.Owners))
		for i, o := range v.Owners {
			owners[i] = int(o)
		}
		if np, err := PartitionFromOwners(m.part.geom, owners, m.part.Nodes(), v.Version); err == nil {
			m.applyPartition(np, m.deps.Now())
		}
	}
	m.deps.Link.Send(m.id, from, protocol.PartitionAck{Node: uint16(m.id), Version: v.Version})
}

// handlePeerHello is the stale-map healer: a peer handshake carrying an
// older map version (a node that restarted or missed updates while
// partitioned away) is pushed the current map directly.
func (m *Member) handlePeerHello(peer int, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.balanceOn || version >= m.part.Version() {
		return
	}
	m.deps.Link.Send(m.id, peer, m.part.update())
}

// update returns the map in its wire form, the PartitionUpdate that
// PartitionFromOwners reads back.
func (p Partition) update() protocol.PartitionUpdate {
	owners := make([]uint16, len(p.colOwner))
	for i, o := range p.colOwner {
		owners[i] = uint16(o)
	}
	return protocol.PartitionUpdate{Version: p.version, Owners: owners}
}

// worldCircle returns a circle covering the whole world, for broadcasts
// that must reach every attached client.
func worldCircle(b geo.Rect) geo.Circle {
	return geo.Circle{
		Center: geo.Pt((b.Min.X+b.Max.X)/2, (b.Min.Y+b.Max.Y)/2),
		R:      math.Hypot(b.Max.X-b.Min.X, b.Max.Y-b.Min.Y) / 2,
	}
}

// ---------------------------------------------------------------------------
// Query migration

// migrateQueries runs in the tick's serial phase: any local query whose
// dead-reckoned focal track left this strip is exported and shipped to
// the owner, the focal client is redirected there, and unacked exports
// are retried.
func (m *Member) migrateQueries(now model.Tick) {
	for _, q := range sortedKeys(m.local) {
		est, ok := m.server.QueryEstimate(q, now)
		if !ok {
			delete(m.local, q)
			continue
		}
		dest := m.part.NodeOf(est)
		if dest == m.id {
			continue
		}
		st, ok := m.server.ExportMonitor(q)
		if !ok {
			continue // probe in flight; retry next tick
		}
		m.shipMonitor(st, dest, now)
	}
	for _, q := range sortedKeys(m.pending) {
		p := m.pending[q]
		if now-p.sentAt >= m.retryGap {
			p.sentAt = now
			m.deps.Link.Send(m.id, p.to, p.msg)
		}
	}
}

// shipMonitor sends an exported monitor snapshot to its new home node,
// installs the retry and relay bookkeeping, and steers the focal client
// there. The per-tick migration scan and a partition change's bulk
// migration share it, so both paths give a migrated monitor identical
// lossy-link protection.
func (m *Member) shipMonitor(st core.MonitorState, dest int, now model.Tick) {
	q := st.Query
	qh := st.ExportState()
	for _, peer := range sortedKeys(m.spread[q]) {
		if peer != dest {
			qh.Spread = append(qh.Spread, uint16(peer))
		}
	}
	delete(m.local, q)
	delete(m.spread, q)
	// Late reports for q still arrive here (aware objects in this strip
	// keep reporting to their own home node — this one); relay them
	// onward like any other remote query.
	m.remote[q] = dest
	m.dir.setHome(st.Addr, dest)
	m.pending[q] = &pendingHandoff{to: dest, msg: qh, sentAt: now}
	m.deps.Link.Send(m.id, dest, qh)
	m.stats.QueryHandoffs++
	m.emit(obs.Event{Type: obs.EvQueryHandoffBegun, Query: q, Seq: qh.AnswerSeq, Value: float64(dest)})
	if m.dir.here(st.Addr) {
		m.redirect(st.Addr, dest)
	}
}

func (m *Member) handleQueryHandoff(from int, v protocol.QueryHandoff) {
	q := v.Query
	if m.local[q] {
		// Duplicate of a handoff already applied (the retry raced the
		// ack, or the ack was lost). Re-affirm the focal client's home
		// before acking again: a handoff flap in the other direction may
		// have left a private belief stale, and the sender's retry proves
		// it believes the query lives here now.
		m.dir.adopt(v.Addr)
		m.deps.Link.Send(m.id, from, protocol.QueryHandoffAck{Query: q})
		return
	}
	m.server.ImportMonitor(core.ImportState(v), m.deps.Now())
	if m.server.HasQuery(q) {
		// Drop the remote-era routing and awareness for q: its reports
		// are handled locally now, and QueriesInvolving supersedes the
		// relay bookkeeping.
		m.purgeQuery(q)
		m.local[q] = true
		m.dir.adopt(v.Addr)
		for _, peer := range v.Spread {
			if int(peer) != m.id {
				m.noteSpread(q, int(peer))
			}
		}
		// The old home keeps relaying late reports; it must also hear
		// the eventual teardown.
		m.noteSpread(q, from)
	}
	// Ack even a rejected (insane) snapshot so the sender stops
	// retrying a message that will never apply.
	m.deps.Link.Send(m.id, from, protocol.QueryHandoffAck{Query: q})
}

// ---------------------------------------------------------------------------
// Link delivery

// HandleLink consumes inter-node messages; NewMember installs it as the
// link's delivery handler, and the TCP link invokes it from peer read
// goroutines.
func (m *Member) HandleLink(from, to int, msg protocol.Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handleLink(from, msg)
}

func (m *Member) handleLink(from int, msg protocol.Message) {
	switch v := msg.(type) {
	case protocol.NodeForward:
		m.handleForward(from, v)
	case protocol.NodeRelay:
		m.routeUplink(v.Origin, v.Inner, int(v.Hops))
	case protocol.NodeDeliver:
		// Hand the payload to this node's radio whatever the directory
		// says: on connection-oriented media the client may hold a live
		// connection without having uplinked yet, and a truly absent
		// client is metered as a transport drop. What a NodeDeliver must
		// never do is forward AGAIN on this node's own home belief — that
		// is what risks ping-pong between nodes with diverged beliefs —
		// so it goes straight to the radio, not through memberSide.
		m.deps.Radio.Downlink(v.To, v.Inner)
	case protocol.ObjectHandoff:
		m.handleObjectHandoff(v)
	case protocol.QueryHandoff:
		m.handleQueryHandoff(from, v)
	case protocol.QueryHandoffAck:
		if _, waiting := m.pending[v.Query]; waiting {
			m.emit(obs.Event{Type: obs.EvHandoffAcked, Query: v.Query})
		}
		delete(m.pending, v.Query)
	case protocol.NodeClientGone:
		m.server.HandleClientGone(v.Object)
		m.dropAware(v.Object)
	case protocol.NodeLoad:
		if m.bal != nil && int(v.Node) < len(m.peerLoads) && int(v.Node) != m.id {
			m.peerLoads[v.Node] = nodeLoadSample{
				seen:    true,
				version: v.Version,
				pop:     int(v.Population),
				queries: int(v.Queries),
				busyUS:  v.BusyUS,
			}
		}
	case protocol.PartitionUpdate:
		m.handlePartitionUpdate(from, v)
	case protocol.PartitionAck:
		if pp := m.pendingPart; pp != nil && v.Version == pp.version && int(v.Node) < len(pp.acked) {
			pp.acked[v.Node] = true
			if !slices.Contains(pp.acked, false) {
				m.pendingPart = nil
			}
		}
	}
}

// handleForward applies a peer's broadcast: learn (or forget) the remote
// query's home for report relaying, then rebroadcast on this node's radio
// — clipped to its cells on a positional medium, to its attached clients
// on a socket, where the client-side state machines filter by the region
// carried in the message exactly as for a local broadcast. A negative
// region radius marks a state-only teardown with nothing to rebroadcast.
func (m *Member) handleForward(from int, v protocol.NodeForward) {
	q, cancel, ok := broadcastQuery(v.Inner)
	switch {
	case !ok:
		return // decode layer prevents this; defense in depth
	case cancel:
		m.purgeQuery(q)
	case !m.local[q]:
		m.remote[q] = from
	}
	if v.Region.R >= 0 {
		m.deps.Radio.Broadcast(v.Region, v.Inner)
	}
}

// ---------------------------------------------------------------------------
// Disconnect handling

// HandleClientAttached implements transport.AttachHandler for this
// node's radio: a completed handshake is ground truth that the client is
// reachable here, so it enters the attach set immediately — before any
// uplink. Query clients in particular can hold a connection for their
// whole lifetime without sending another frame; were attachment
// uplink-driven only, unicast deliveries (answers, redirects) addressed
// to them would be refused as "not attached" while the radio holds a
// perfectly live connection.
//
// The handshake greeting also pushes the current partition map when it
// has evolved. A client can dial with an arbitrarily stale routing
// belief (it missed update broadcasts while detached, or teleported
// while silent); if it picked the wrong node it hears no install traffic
// there and, sending nothing, would never be redirected — the greeting
// is the heal that lets its next dial decision aim correctly.
func (m *Member) HandleClientAttached(id model.ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bel.attach[id] = true
	if !m.balanceOn || m.part.Version() == 0 {
		return
	}
	m.deps.Radio.Downlink(id, m.part.update())
}

// HandleClientGone implements transport.DisconnectHandler for this
// node's radio. The crucial federation rule: purge only when this node
// still believes it is the client's home. A disconnect caused by a
// redirect or handoff (home already flipped to the owner) must destroy
// nothing — the client is alive and re-attaching elsewhere.
func (m *Member) HandleClientGone(id model.ObjectID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.bel.attach, id)
	if m.bel.homes[id] != m.id {
		return
	}
	delete(m.bel.homes, id)
	m.purgeClient(id)
}

// purgeClient removes a vanished client federation-wide: this node, its
// home, purges its own monitors, and every node that ever homed one of
// the client's remote queries is told to purge too — the distributed
// equivalent of the single server's disconnect-purge guarantee.
func (m *Member) purgeClient(id model.ObjectID) {
	homes := make(map[int]bool)
	for _, home := range m.aware[id] {
		homes[home] = true
	}
	m.server.HandleClientGone(id)
	// If id was a focal client, its queries just deregistered without a
	// radio uplink; complete their federation teardown.
	for _, q := range sortedKeys(m.local) {
		if !m.server.HasQuery(q) {
			m.finishTeardown(q)
		}
	}
	m.dropAware(id)
	for _, home := range sortedKeys(homes) {
		if home == m.id {
			continue
		}
		m.deps.Link.Send(m.id, home, protocol.NodeClientGone{Object: id})
	}
}

// ---------------------------------------------------------------------------
// The server's send surface

// memberSide is the transport.ServerSide the inner core.Server sends
// through: downlinks go to the client's own radio or, over the link, to
// the node serving it; broadcasts go out on this node's radio and forward
// across the link to every other node whose strip the region touches. It
// reads the routing state directly: every entry into a deployed member's
// server holds the mutex, and a Cluster's parallel server ticks each
// touch only their own member (the directory is not written while they
// run, and the shared send surfaces arrive already locked).
type memberSide struct{ m *Member }

func (s memberSide) Downlink(to model.ObjectID, msg protocol.Message) {
	m := s.m
	if !m.dir.here(to) {
		if home, known := m.dir.home(to); known && home != m.id {
			m.deps.Link.Send(m.id, home, protocol.NodeDeliver{To: to, Version: m.part.Version(), Inner: msg})
			return
		}
		// Not attached and no better belief: send on the radio anyway
		// (the transport meters it as a drop if the client is truly
		// absent).
	}
	m.deps.Radio.Downlink(to, msg)
}

func (s memberSide) Broadcast(region geo.Circle, msg protocol.Message) {
	m := s.m
	m.deps.Radio.Broadcast(region, msg)
	q, cancel, ok := broadcastQuery(msg)
	if !ok {
		return
	}
	var targets []int
	m.part.VisitIntersecting(region, func(peer int) {
		if peer != m.id {
			targets = append(targets, peer)
		}
	})
	if cancel {
		// A cancel must reach every node that ever saw the query, not
		// just the ones the final region touches.
		for _, peer := range sortedKeys(m.spread[q]) {
			if peer != m.id && !slices.Contains(targets, peer) {
				targets = append(targets, peer)
			}
		}
		slices.Sort(targets)
		delete(m.spread, q)
	}
	for _, peer := range targets {
		m.deps.Link.Send(m.id, peer, protocol.NodeForward{
			Home:    uint16(m.id),
			Version: m.part.Version(),
			Region:  region,
			Inner:   msg,
		})
		if !cancel {
			m.noteSpread(q, peer)
		}
	}
}

// noteSpread records that peer has seen a broadcast of local query q.
func (m *Member) noteSpread(q model.QueryID, peer int) {
	sp := m.spread[q]
	if sp == nil {
		sp = make(map[int]bool)
		m.spread[q] = sp
	}
	sp[peer] = true
}

// ---------------------------------------------------------------------------
// Message introspection helpers

// uplinkKinematics extracts the position (and, where carried, velocity)
// a client uplink reports, for boundary detection.
func uplinkKinematics(m protocol.Message) (geo.Point, geo.Vector, model.Tick, bool) {
	switch v := m.(type) {
	case protocol.LocationReport:
		return v.Pos, v.Vel, v.At, true
	case protocol.ProbeReply:
		return v.Pos, geo.Vector{}, v.At, true
	case protocol.EnterReport:
		return v.Pos, geo.Vector{}, v.At, true
	case protocol.ExitReport:
		return v.Pos, geo.Vector{}, v.At, true
	case protocol.LeaveReport:
		return v.Pos, geo.Vector{}, v.At, true
	case protocol.MoveReport:
		return v.Pos, geo.Vector{}, v.At, true
	case protocol.QueryRegister:
		return v.Pos, v.Vel, v.At, true
	case protocol.QueryMove:
		return v.Pos, v.Vel, v.At, true
	}
	return geo.Point{}, geo.Vector{}, 0, false
}

// uplinkQuery extracts the query id an uplink addresses.
func uplinkQuery(m protocol.Message) (model.QueryID, bool) {
	switch v := m.(type) {
	case protocol.ProbeReply:
		return v.Query, true
	case protocol.EnterReport:
		return v.Query, true
	case protocol.ExitReport:
		return v.Query, true
	case protocol.LeaveReport:
		return v.Query, true
	case protocol.MoveReport:
		return v.Query, true
	case protocol.QueryRegister:
		return v.Query, true
	case protocol.QueryMove:
		return v.Query, true
	case protocol.QueryDeregister:
		return v.Query, true
	case protocol.AnswerResync:
		return v.Query, true
	}
	return 0, false
}

// broadcastQuery extracts the query id a broadcast concerns and whether
// it is a teardown.
func broadcastQuery(m protocol.Message) (q model.QueryID, cancel, ok bool) {
	switch v := m.(type) {
	case protocol.ProbeRequest:
		return v.Query, false, true
	case protocol.MonitorInstall:
		return v.Query, false, true
	case protocol.InfluenceInstall:
		return v.Install.Query, false, true
	case protocol.MonitorCancel:
		return v.Query, true, true
	}
	return 0, false, false
}

// sortedKeys returns a map's keys in ascending order: everything that
// sends while walking a map walks it through here, so message order never
// depends on map iteration.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	if len(m) == 0 {
		return nil
	}
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

var (
	_ transport.ServerHandler     = (*Member)(nil)
	_ transport.DisconnectHandler = (*Member)(nil)
	_ transport.AttachHandler     = (*Member)(nil)
)
