// Package cluster federates the DKNN server across spatial partitions:
// the world is statically divided into per-node regions (vertical strips
// of whole grid-cell columns), each node runs its own core.Server owning
// the objects and focal queries currently inside its region, and nodes
// coordinate over a metered inter-node Link.
//
// Three mechanisms keep the federation exact:
//
//   - Cross-boundary monitors: when a query's monitoring region
//     intersects a neighbor node's strip, the home node forwards the
//     broadcast (probe, install, cancel) over the link (NodeForward) and
//     the neighbor rebroadcasts it restricted to its own cells. The
//     neighbor remembers the query's home and relays the Enter/Exit/
//     Leave/Move reports it receives back to it (NodeRelay); the home
//     node remains the single answer authority.
//   - Object handoff: a client whose report places it in another node's
//     strip is transferred (ObjectHandoff: kinematics plus the per-query
//     awareness map) and its uplink routing flips to the new owner, so
//     no report is lost and no uplink is ever double-counted.
//   - Query handoff: when a focal client's advertised track leaves its
//     home strip, the whole monitor state machine (epoch, candidate and
//     inside sets, answer sequence) migrates over the link
//     (QueryHandoff, retried until acked) and the new home re-baselines
//     the client through the resync path — the answer sequence
//     continues, so the client never observes the migration.
//
// Member is the state machine: one node's implementation of all three
// mechanisms, and the only one. Cluster is a harness that runs N Members
// in one process for the experiments; a deployment runs one Member per
// process. Exactly two seams separate the two: the Link that carries the
// inter-node messages (MemLink, TCPLink), and the unexported directory
// that answers who serves a client — one map every member reads in
// process, a private per-node belief across processes.
//
// With one node the federation is wire-identical to the single server:
// the restricted broadcast covers every cell and no link traffic exists.
// Because each grid cell is owned by exactly one node, the aggregate
// radio metering of a multi-node broadcast (local clip plus forwarded
// rebroadcasts) also equals the single server's, which keeps the
// client-observable protocol unchanged at any node count.
package cluster

import (
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

// Stats counts federation-level events.
type Stats struct {
	// ObjectHandoffs and QueryHandoffs count boundary migrations
	// (retries of an unacked query handoff are not re-counted).
	ObjectHandoffs uint64
	QueryHandoffs  uint64
	// RelayDrops counts uplinks no node could route: the addressed query
	// was unknown everywhere reachable, or a forwarding chain exceeded
	// its hop budget.
	RelayDrops uint64
	// ColumnMoves counts balancer-driven partition changes (zero with
	// the balancer disabled).
	ColumnMoves uint64
}

// Deps wires a Cluster to its environment.
type Deps struct {
	// Link carries inter-node messages.
	Link Link
	// Radio builds node i's restricted radio surface (e.g. a
	// simnet.RestrictedServerSide over the node's cell filter).
	Radio func(node int) transport.ServerSide
	// Now is the shared clock.
	Now func() model.Tick
	// The remaining fields mirror core.ServerDeps and are passed through
	// to every node's server. LatencyTicks must include the link latency
	// on top of the radio latency: a cross-boundary probe pays both, and
	// the servers schedule reply deadlines from this bound.
	DT             float64
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	LatencyTicks   int
	// Trace, when non-nil, receives federation lifecycle events (handoffs,
	// relay drops) and — stamped with the node id — every per-node server's
	// protocol events. Node servers tick on parallel goroutines, so the
	// sink must be safe for concurrent use.
	Trace obs.Sink
	// PartRef, when non-nil, is the shared partition view the radio cell
	// filters read; the cluster keeps it in sync as the balancer moves
	// columns. New creates one when nil (callers that never enable the
	// balancer need not care).
	PartRef *PartitionRef
}

// Cluster is the in-process harness of the federation: it owns one Member
// per strip and drives them in lockstep — the link's flush points, the
// parallel server ticks, and a central balancer. It holds no protocol
// logic of its own; every message is handled by the Member it addresses.
//
// It implements transport.ServerHandler (and DisconnectHandler) as the
// single uplink surface of the whole federation — the simulated radio does
// not know which node a cell belongs to; the cluster routes by each
// client's home node, which follows the client across boundaries via
// object handoff.
type Cluster struct {
	link  Link // unlocked: only the serial phases flush
	nodes []*Member

	// home maps each client (object or focal query address) to the node
	// currently serving it: the one authoritative map behind every
	// member's directory. Updated at handoff initiation so routing flips
	// atomically with the decision, never trailing a lossy link.
	home map[model.ObjectID]int

	// sendMu serializes the send surfaces (radio and link) the members
	// share, under the parallel per-node server ticks, like
	// shard.lockedSide. The serial phases take it too — uncontended — so
	// every send path is uniform.
	sendMu sync.Mutex

	// ref holds the current map, shared with the radio cell filters;
	// every member's copy is swapped together with it when the balancer
	// moves a column.
	ref *PartitionRef

	// bal, when non-nil, drives adaptive partitioning from the serial
	// tick phase. balBusyBase holds each node's cumulative busy time at
	// the last decision, so loads are per-window rates.
	bal         *balance.Balancer
	balBusyBase []time.Duration
	columnMoves uint64
}

// lockedLink and lockedSide put the cluster's send mutex around the link
// and the radio surfaces before a member gets them: the members' servers
// tick on parallel goroutines and send through both.
type lockedLink struct {
	mu *sync.Mutex
	Link
}

func (l lockedLink) Send(from, to int, m protocol.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Link.Send(from, to, m)
}

type lockedSide struct {
	mu   *sync.Mutex
	side transport.ServerSide
}

func (s lockedSide) Downlink(to model.ObjectID, m protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.side.Downlink(to, m)
}

func (s lockedSide) Broadcast(region geo.Circle, m protocol.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.side.Broadcast(region, m)
}

// New builds a federation over the partition. Deps.Link and Deps.Radio
// must be set; the caller attaches the returned cluster as the radio's
// server handler and installs Cluster.HandleLink as the link's delivery
// handler.
func New(part Partition, cfg core.Config, deps Deps) (*Cluster, error) {
	c := &Cluster{
		link: deps.Link,
		home: make(map[model.ObjectID]int),
		ref:  deps.PartRef,
	}
	if c.ref == nil {
		c.ref = NewPartitionRef(part)
	} else {
		c.ref.store(part)
	}
	// An unacked handoff is resent once a full link round trip has
	// passed without the ack.
	retryGap := model.Tick(1)
	if l, ok := deps.Link.(*MemLink); ok {
		retryGap = model.Tick(2*l.cfg.LatencyTicks + 1)
	}
	c.nodes = make([]*Member, part.Nodes())
	for i := range c.nodes {
		n, err := newMember(part, i, cfg, MemberDeps{
			Link:           lockedLink{&c.sendMu, deps.Link},
			Radio:          lockedSide{&c.sendMu, deps.Radio(i)},
			Now:            deps.Now,
			DT:             deps.DT,
			MaxObjectSpeed: deps.MaxObjectSpeed,
			MaxQuerySpeed:  deps.MaxQuerySpeed,
			LatencyTicks:   deps.LatencyTicks,
			Trace:          deps.Trace,
		}, sharedHomes{self: i, homes: c.home})
		if err != nil {
			return nil, err
		}
		n.retryGap = retryGap
		c.nodes[i] = n
	}
	return c, nil
}

// Partition returns the spatial decomposition (the current map when the
// balancer is enabled).
func (c *Cluster) Partition() Partition { return c.ref.Load() }

// PartitionRef returns the shared partition view; it tracks
// balancer-driven map changes, so radio cell filters built over it stay
// aligned with the cluster's routing.
func (c *Cluster) PartitionRef() *PartitionRef { return c.ref }

// EnableBalancer turns on adaptive partitioning: every tick's serial
// phase consults the balancer and, when it proposes a column move,
// installs the versioned new map and bulk-migrates the monitors the move
// stranded. Call before the first Tick.
func (c *Cluster) EnableBalancer(cfg balance.Config) {
	c.bal = balance.New(cfg)
	c.balBusyBase = make([]time.Duration, len(c.nodes))
}

// BalancerStats returns the balancer's activity counters (zero when the
// balancer was never enabled).
func (c *Cluster) BalancerStats() balance.Stats {
	if c.bal == nil {
		return balance.Stats{}
	}
	return c.bal.Stats()
}

// Node returns node i's server (for inspection).
func (c *Cluster) Node(i int) *core.Server { return c.nodes[i].server }

// BusyTime implements core.Engine: the nodes tick in parallel, so the
// federation's server time is the critical path — the busiest node.
func (c *Cluster) BusyTime() time.Duration {
	var busiest time.Duration
	for _, n := range c.nodes {
		busiest = max(busiest, n.server.BusyTime())
	}
	return busiest
}

// Stats returns the federation event counters: the members' summed, plus
// the column moves of the cluster's own balancer.
func (c *Cluster) Stats() Stats {
	s := Stats{ColumnMoves: c.columnMoves}
	for _, n := range c.nodes {
		s.ObjectHandoffs += n.stats.ObjectHandoffs
		s.QueryHandoffs += n.stats.QueryHandoffs
		s.RelayDrops += n.stats.RelayDrops
	}
	return s
}

// SeedHome records a client's initial home node from its position,
// before any uplink exists to infer it from.
func (c *Cluster) SeedHome(id model.ObjectID, pos geo.Point) {
	c.home[id] = c.ref.Load().NodeOf(pos)
}

// HomeOf returns the node currently serving the client (node 0 for a
// client the cluster has never heard of).
func (c *Cluster) HomeOf(id model.ObjectID) int { return c.home[id] }

// HandleUplink implements transport.ServerHandler: radio uplinks enter
// the federation at the sender's home node.
func (c *Cluster) HandleUplink(from model.ObjectID, msg protocol.Message) {
	c.nodes[c.home[from]].routeUplink(from, msg, 0)
}

// HandleLink consumes inter-node messages; install it as the Link's
// delivery handler.
func (c *Cluster) HandleLink(from, to int, m protocol.Message) {
	c.nodes[to].handleLink(from, m)
}

// HandleClientGone implements transport.DisconnectHandler: the home node
// purges its own monitors, and every node that ever homed one of the
// client's remote queries is told to purge too — the distributed
// equivalent of the single server's disconnect-purge guarantee.
func (c *Cluster) HandleClientGone(id model.ObjectID) {
	c.nodes[c.home[id]].purgeClient(id)
}

// ---------------------------------------------------------------------------
// Adaptive partitioning

// rebalance runs the balancer in the serial phase: sample per-node loads
// over the decision window, ask for a column move, install the versioned
// new map on every member in one step, and bulk-migrate the monitors the
// move stranded. Objects need no sweep — each re-homes lazily on its next
// uplink through the ordinary boundary-detection path, and until then its
// old home relays for it.
//
// A deployment has no serial step across nodes, so there Member runs the
// same decision engine on a coordinator node and replicates the map over
// the link (NodeLoad, PartitionUpdate, PartitionAck); both end in
// Member.migrateOutOfStrip.
func (c *Cluster) rebalance(now model.Tick) {
	if !c.bal.Due(now) {
		return
	}
	pop := make([]int, len(c.nodes))
	for _, h := range c.home {
		pop[h]++
	}
	loads := make([]balance.Load, len(c.nodes))
	busy := make([]time.Duration, len(c.nodes))
	for i, n := range c.nodes {
		busy[i] = n.server.BusyTime()
		loads[i] = balance.Load{
			Population: pop[i],
			Queries:    len(n.local),
			BusyUS:     uint64((busy[i] - c.balBusyBase[i]).Microseconds()),
		}
	}
	part := c.ref.Load()
	mv, ok := c.bal.Decide(now, part.Owners(), loads)
	copy(c.balBusyBase, busy) // start the next sample window either way
	if !ok {
		return
	}
	np, err := part.MoveColumn(mv.Col, mv.To)
	if err != nil {
		return // defense in depth; the balancer only proposes legal moves
	}
	// The members' copies and the shared ref the radio cell filters read
	// swap in this one serial step — no server tick is running — so no
	// broadcast can clip against one map and forward against another.
	c.ref.store(np)
	for _, n := range c.nodes {
		n.part = np
	}
	c.columnMoves++
	c.nodes[mv.From].emit(obs.Event{Type: obs.EvColumnMoved, Seq: uint32(np.Version()), Value: float64(mv.To)})
	for _, n := range c.nodes {
		n.migrateOutOfStrip(now)
	}
}

// ---------------------------------------------------------------------------
// Tick driving

// Tick advances the federation one step: deliver due link messages
// (their handlers may touch any node — still the serial phase), migrate
// boundary-crossing queries, run every node's server tick in parallel,
// then deliver the link traffic those ticks produced.
func (c *Cluster) Tick(now model.Tick) {
	c.link.Flush()
	if c.bal != nil {
		c.rebalance(now)
	}
	for _, n := range c.nodes {
		n.migrateQueries(now)
	}
	c.parallel(func(_ int, n *Member) { n.server.Tick(now) })
	c.link.Flush()
}

// parallel runs fn for every member, each on its own goroutine, and
// waits for all of them.
func (c *Cluster) parallel(fn func(i int, n *Member)) {
	var wg sync.WaitGroup
	for i, n := range c.nodes {
		wg.Add(1)
		go func(i int, n *Member) {
			defer wg.Done()
			fn(i, n)
		}(i, n)
	}
	wg.Wait()
}

// Finalize settles intra-tick conversations: link deliveries may feed
// node servers, whose Finalize may conclude probes and send again. It
// reports whether anything moved, so the driving engine knows to flush
// the radio and call again.
func (c *Cluster) Finalize(now model.Tick) bool {
	act := c.link.Flush() > 0
	results := make([]bool, len(c.nodes))
	c.parallel(func(i int, n *Member) { results[i] = n.server.Finalize(now) })
	act = act || slices.Contains(results, true)
	return c.link.Flush() > 0 || act
}
