// Package simnet is the in-memory wireless network the experiments run
// on. It implements the transport interfaces with exact message metering:
// every uplink, downlink, and per-cell broadcast transmission is counted
// and sized with the real wire codec, so simulated traffic equals what the
// TCP deployment would send.
//
// Semantics:
//
//   - Time is the simulation tick; messages sent at tick t become
//     deliverable at t + LatencyTicks (0 = same tick).
//   - Flush delivers all due messages in FIFO order, including messages
//     enqueued by handlers during the flush, until the network is
//     quiescent. The protocol state machines guarantee quiescence; a
//     round limit turns a violation into a loud failure. Internally the
//     queue is a ring of per-tick buckets, so a flush round touches only
//     the messages that are actually due; without jitter, due ticks are
//     monotone in enqueue order and bucket order equals global FIFO
//     bit-for-bit. With jitter enabled, delivery runs in due-tick order
//     (FIFO within a tick) — jitter breaks FIFO by design. An entry is
//     40 bytes; a broadcast's coverage sits in a record recycled through
//     a free list. A round takes its bucket by swapping it with an empty
//     scratch slice, delivered entries and records are zeroed, a slot with
//     nothing pending holds no array (a quiescent flush parks the drained
//     one as the spare), and capacity a burst left behind is released
//     once a whole window of flushes has passed without needing it.
//   - Broadcasts are cell-granular: a region broadcast is accounted as
//     one transmission per intersecting grid cell, and is heard by every
//     client whose current position lies in one of those cells. The
//     audience is resolved from an incrementally maintained per-cell
//     index over a dense client table, so delivery cost scales with the
//     region's population, not the network's, and the once-per-flush
//     position refresh is a sequential walk, not a hash-table traversal,
//     in which a client still inside its cell costs one oracle call and
//     four comparisons against the grid's exact cell edges.
//   - Loss is independent per recipient with configurable probability per
//     direction, from a seeded generator: runs are reproducible.
//   - Faults (optional) compose on top of the independent loss: burst loss
//     from a Gilbert–Elliott channel per direction, per-message latency
//     jitter (which breaks FIFO ordering across ticks), message
//     duplication, and client down/up churn. All fault processes draw from
//     a second seeded generator, so a zero FaultConfig leaves the base
//     loss stream — and therefore every pre-existing experiment —
//     bit-for-bit unchanged.
package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"dmknn/internal/container"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// Config parameterizes the network.
type Config struct {
	// Geometry is the broadcast cell layout (shared with the server's
	// index in practice, but only the layout is shared).
	Geometry grid.Geometry
	// LatencyTicks delays delivery by this many ticks. 0 means messages
	// sent during a tick are delivered by that tick's Flush.
	LatencyTicks int
	// Loss probabilities per direction, in [0, 1).
	UplinkLoss    float64
	DownlinkLoss  float64
	BroadcastLoss float64
	// Seed drives the loss process.
	Seed int64
	// Faults composes the optional fault-injection matrix. The zero value
	// disables every fault and leaves the base loss stream untouched.
	Faults FaultConfig
}

// GEChannel is a two-state Gilbert–Elliott burst-loss channel. The chain
// advances once per delivery attempt on its direction: the attempt is
// lost with the current state's loss probability, then the state
// transitions. The zero value is a disabled channel.
type GEChannel struct {
	// PGoodBad is the per-attempt probability of moving good → bad.
	PGoodBad float64
	// PBadGood is the per-attempt probability of moving bad → good; its
	// reciprocal is the mean burst length in attempts.
	PBadGood float64
	// LossGood and LossBad are the per-attempt loss probabilities in each
	// state (typically LossGood ≈ 0, LossBad ≈ 1).
	LossGood float64
	LossBad  float64
}

func (g GEChannel) enabled() bool { return g != GEChannel{} }

func (g GEChannel) validate(name string) {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("simnet: %s GE probability %v outside [0,1]", name, p))
		}
	}
	if g.enabled() && g.PBadGood == 0 && g.PGoodBad > 0 {
		panic(fmt.Sprintf("simnet: %s GE channel can enter the bad state but never leave it", name))
	}
}

// BurstLoss returns a Gilbert–Elliott channel with the given stationary
// loss rate (in [0,1)) and mean burst length (in delivery attempts,
// >= 1): the bad state always loses, the good state never does, and the
// transition probabilities are solved so the long-run fraction of
// attempts spent bad equals rate.
func BurstLoss(rate, meanBurst float64) GEChannel {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("simnet: burst loss rate %v outside [0,1)", rate))
	}
	if meanBurst < 1 {
		panic(fmt.Sprintf("simnet: mean burst length %v < 1", meanBurst))
	}
	if rate == 0 {
		return GEChannel{}
	}
	pBG := 1 / meanBurst
	return GEChannel{
		PGoodBad: pBG * rate / (1 - rate),
		PBadGood: pBG,
		LossBad:  1,
	}
}

// FaultConfig composes the fault-injection matrix. Every process draws
// from the fault generator only when enabled, so any subset can be
// switched on without perturbing the others (or the base loss stream).
type FaultConfig struct {
	// Per-direction Gilbert–Elliott burst loss, applied on top of the
	// independent per-message loss probabilities.
	UplinkGE    GEChannel
	DownlinkGE  GEChannel
	BroadcastGE GEChannel
	// JitterTicks adds a uniform extra delay in [0, JitterTicks] ticks to
	// each queued message independently, breaking FIFO ordering.
	JitterTicks int
	// DuplicateProb enqueues a second copy of a message with this
	// probability, in [0,1). The copy jitters independently and is not
	// counted as a send; Network.Duplicated exposes the count so
	// conservation checks can account for it.
	DuplicateProb float64
}

func (f FaultConfig) validate() {
	f.UplinkGE.validate("uplink")
	f.DownlinkGE.validate("downlink")
	f.BroadcastGE.validate("broadcast")
	if f.JitterTicks < 0 {
		panic("simnet: negative jitter")
	}
	if f.DuplicateProb < 0 || f.DuplicateProb >= 1 {
		panic(fmt.Sprintf("simnet: duplicate probability %v outside [0,1)", f.DuplicateProb))
	}
}

// queued is one delivery queue entry, 40 bytes: peer is the uplink's
// sender or the downlink's recipient (a broadcast has neither), and a
// broadcast's coverage lives in a record of its own, so the uplinks and
// downlinks that make up most of the queue do not carry it.
type queued struct {
	due  model.Tick
	peer model.ObjectID
	dir  metrics.Direction
	msg  protocol.Message
	b    *bcast // broadcasts only
}

// bcast is the broadcast-only part of a queue entry. Records are recycled
// through Network.bfree: a record is taken when a broadcast is queued and
// returned zeroed once it has been delivered.
type bcast struct {
	region geo.Circle
	// filter restricts a broadcast to the cells it accepts (nil: all
	// cells). A federated deployment gives each node a filter selecting
	// the cells it owns, so a node's broadcast only reaches its own
	// region and sibling nodes cover the rest of the circle.
	filter func(grid.Cell) bool
}

// client is one row of the dense client table. A row with a nil handler
// is free (its number sits on Network.free); a live row records where the
// client sits in the cell index: the dense cell it occupies (-1 when the
// position oracle cannot place it), that cell's column and row, which the
// refresh tests the next position against, and its position within the
// cell's list, for O(1) swap-with-last removal. Column and row fill the
// padding after id, so a row stays 32 B.
type client struct {
	id       model.ObjectID
	col, row int16
	handler  transport.ClientHandler
	cell     int32
	at       int32
}

// entry is one audience member: a client id packed with its slot number,
// uint64(id)<<32 | slot. The id takes the high half, so ordering entries
// orders them by id, and the slot reaches the handler without a map probe.
type entry uint64

func pack(id model.ObjectID, slot int32) entry { return entry(id)<<32 | entry(uint32(slot)) }
func (e entry) id() model.ObjectID             { return model.ObjectID(e >> 32) }
func (e entry) slot() uint32                   { return uint32(e) }

// Network is the simulated medium. It is not safe for concurrent use; the
// simulation engine drives it from one goroutine.
type Network struct {
	cfg      Config
	counters metrics.Counters
	rng      *rand.Rand
	now      model.Tick

	// Fault state. frng is a second generator so fault processes never
	// perturb the base loss stream; geBad tracks the Gilbert–Elliott state
	// per direction; down marks crashed clients; dups counts duplicated
	// queue entries per direction.
	frng  *rand.Rand
	geBad [3]bool
	down  map[model.ObjectID]bool
	dups  [3]uint64

	server transport.ServerHandler

	// Client table: slots is dense and never shrinks, free stacks the
	// numbers of detached rows for reuse, and slotOf resolves an id to its
	// row only where an id arrives from outside (attach, detach, downlink
	// delivery, and a stale audience entry during fan-out). Everything on
	// the per-flush path walks slots or follows a slot number.
	slots  []client
	free   []int32
	slotOf map[model.ObjectID]int32

	positions func(model.ObjectID) (geo.Point, bool)

	// Delivery queue: a ring of per-tick buckets keyed by due tick. Every
	// pending due lies in [bucketLow, bucketHigh) and that span never
	// exceeds len(buckets) — the ring grows before two live ticks could
	// alias one slot — so a flush round touches only the buckets that are
	// actually due instead of re-partitioning the whole queue. bucketLow
	// is a lower bound (it lags after drains), which is safe: slots
	// between it and the true minimum are empty.
	//
	// dueScratch is the slice the current flush round delivers from; a
	// round trades it for the due bucket instead of copying (takeDue).
	// spare is the one idle array: a quiescent Flush moves the emptied
	// array of the now bucket into it, and the next push into a slot with
	// no array takes it, so a ring slot with nothing pending holds no
	// array and, at latency 0, the scratch and the spare serve every tick.
	// Every slot past len of every bucket, the scratch and the spare is
	// the zero queued: delivered entries are cleared, so a retained array
	// pins no message. bfree stacks the idle broadcast records, each
	// zeroed. window applies the capacity rule (container.Window) to all
	// of them: its high-water mark is the largest delivery round, and each
	// flush ends one of its rounds.
	buckets    [][]queued
	bucketLow  model.Tick
	bucketHigh model.Tick
	pending    int
	dueScratch []queued
	spare      []queued
	bfree      []*bcast
	window     container.Window

	// Cell-indexed broadcast audience: cells[Geometry.CellIndex(c)] holds
	// one packed (id, slot) entry per attached client whose last resolved
	// position lies in cell c, so a region broadcast visits only the
	// clients of its intersecting cells and reaches each handler through
	// its slot number. The index is refreshed from the position oracle at
	// most once per Flush — lazily, when the first broadcast delivers — and
	// maintained incrementally through attach/detach. recipients is the
	// per-broadcast scratch the audience is gathered and sorted into;
	// audience applies the capacity rule to it, its high-water mark the
	// largest audience, each flush one of its rounds.
	cells      [][]entry
	indexFresh bool
	recipients []entry
	audience   container.Window
	// xs and ys are the geometry's cell edges (grid.Geometry.Edges): a
	// client whose position lies between its cell's edges is still in it.
	// They are nil for a grid too wide for a row's int16 column or row,
	// where every refresh resolves the cell with CellOf.
	xs, ys []float64

	// refBroadcast, when non-nil, delivers broadcast queue entries in
	// place of the indexed fan-out. Only _test.go assigns it: the
	// equivalence tests and the fan-out benchmark hang their Θ(clients)
	// oracle here to run it behind the same queue and loss generators.
	refBroadcast func(q queued) int

	// shared is the slot the clients' logic shares (clientSide.Shared).
	shared atomic.Value

	// trace, when non-nil, receives a net-level event per send, per
	// delivery, and per drop. Tracing draws no randomness and never
	// touches the loss generators, so an armed trace cannot perturb a
	// seeded run.
	trace obs.Sink
}

// New returns a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.LatencyTicks < 0 {
		panic("simnet: negative latency")
	}
	for _, p := range []float64{cfg.UplinkLoss, cfg.DownlinkLoss, cfg.BroadcastLoss} {
		if p < 0 || p >= 1 {
			panic(fmt.Sprintf("simnet: loss probability %v outside [0,1)", p))
		}
	}
	cfg.Faults.validate()
	n := &Network{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		frng:    rand.New(rand.NewSource(cfg.Seed ^ faultSeedMix)),
		down:    make(map[model.ObjectID]bool),
		slotOf:  make(map[model.ObjectID]int32),
		buckets: make([][]queued, ringSize(cfg.LatencyTicks+cfg.Faults.JitterTicks+2)),
		cells:   make([][]entry, cfg.Geometry.NumCells()),
	}
	if cols, rows := cfg.Geometry.Dims(); cols <= math.MaxInt16 && rows <= math.MaxInt16 {
		n.xs, n.ys = cfg.Geometry.Edges()
	}
	return n
}

// ringSize rounds the wanted bucket count up to a power of two (masking
// replaces the modulo on the delivery hot path), with a small floor.
func ringSize(want int) int {
	size := 8
	for size < want {
		size *= 2
	}
	return size
}

// faultSeedMix decorrelates the fault generator from the base loss
// generator when both derive from the same configured seed.
const faultSeedMix = int64(-0x61c8864680b583eb) // 0x9e3779b97f4a7c15 as int64

// SetFaults replaces the fault matrix mid-run (e.g. a chaos phase that
// starts and later clears). Gilbert–Elliott channel state and the fault
// generator are preserved across calls so re-enabling resumes the same
// deterministic process.
func (n *Network) SetFaults(f FaultConfig) {
	f.validate()
	n.cfg.Faults = f
}

// SetClientDown marks a client as crashed (or back up). Messages to or
// from a down client are dropped at delivery time and counted as drops;
// the attach state is untouched, so bringing the client back up restores
// delivery without re-registration.
func (n *Network) SetClientDown(id model.ObjectID, isDown bool) {
	if isDown {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// Duplicated returns how many extra copies the duplication fault enqueued
// in the given direction. Conservation under duplication is
// sent + duplicated == delivered + dropped for unicast directions.
func (n *Network) Duplicated(dir metrics.Direction) uint64 { return n.dups[dir] }

// RNGBurn draws and returns one value from the base-loss generator and
// one from the fault generator. It exists for equivalence tests, which
// call it once at the end of two runs to assert both pairs of streams
// sit at the same position; the draws advance the streams, so production
// code must never call it.
func (n *Network) RNGBurn() (base, fault float64) {
	return n.rng.Float64(), n.frng.Float64()
}

// Counters returns the live traffic counters.
func (n *Network) Counters() *metrics.Counters { return &n.counters }

// SetTrace installs (or, with nil, removes) the net-level event sink.
func (n *Network) SetTrace(s obs.Sink) { n.trace = s }

// emit records one net-level event; callers guard with n.trace != nil.
func (n *Network) emit(t obs.EventType, dir metrics.Direction, id model.ObjectID, k protocol.Kind) {
	n.trace.Record(obs.Event{At: n.now, Type: t, Node: -1, Dir: int8(dir), Object: id, Kind: k})
}

// AttachServer installs the server-side uplink handler.
func (n *Network) AttachServer(h transport.ServerHandler) { n.server = h }

// AttachClient registers a client endpoint. Re-attaching an id replaces
// its handler in place: the client keeps its slot and its cell.
func (n *Network) AttachClient(id model.ObjectID, h transport.ClientHandler) {
	if h == nil {
		panic(fmt.Sprintf("simnet: client %d attached with a nil handler", id))
	}
	if s, exists := n.slotOf[id]; exists {
		n.slots[s].handler = h
		return
	}
	c := client{id: id, handler: h, cell: -1}
	var s int32
	if k := len(n.free); k > 0 {
		s, n.free = n.free[k-1], n.free[:k-1]
		n.slots[s] = c
	} else {
		s = int32(len(n.slots))
		n.slots = append(n.slots, c)
	}
	n.slotOf[id] = s
	if n.indexFresh {
		// Mid-flush attach: the index is live for the current Flush; place
		// the newcomer now so later broadcasts in the same flush see it.
		n.placeSlot(s)
	}
}

// DetachClient removes a client endpoint; in-flight messages to it will be
// dropped (and counted as such).
func (n *Network) DetachClient(id model.ObjectID) {
	s, exists := n.slotOf[id]
	if !exists {
		return
	}
	if c := n.slots[s]; c.cell >= 0 {
		n.removeFromCell(c.cell, c.at)
	}
	n.slots[s] = client{cell: -1}
	n.free = append(n.free, s)
	delete(n.slotOf, id)
}

// SetPositionOracle installs the function the network uses to resolve
// broadcast recipients. The oracle must reflect current client positions
// at Flush time and must not change while a Flush is in progress: the
// network resolves each client's cell once per flush and fans broadcasts
// out from that snapshot.
func (n *Network) SetPositionOracle(fn func(model.ObjectID) (geo.Point, bool)) {
	n.positions = fn
}

// SetNow advances the network clock. Flush delivers messages due at or
// before this tick.
func (n *Network) SetNow(t model.Tick) { n.now = t }

// Now returns the network clock.
func (n *Network) Now() model.Tick { return n.now }

// ServerSide returns the sending surface for the server.
func (n *Network) ServerSide() transport.ServerSide { return serverSide{n: n} }

// RestrictedServerSide returns a server sending surface whose broadcasts
// cover only the cells the filter accepts: transmissions are metered for
// and delivered in accepted cells alone. Downlinks are unaffected. When
// several surfaces with disjoint filters partition the grid — one per
// federation node — their aggregate metering and coverage for a given
// region equal one unrestricted broadcast of it.
func (n *Network) RestrictedServerSide(filter func(grid.Cell) bool) transport.ServerSide {
	return serverSide{n: n, filter: filter}
}

// ClientSide returns the sending surface for client id.
func (n *Network) ClientSide(id model.ObjectID) transport.ClientSide {
	return clientSide{n, id}
}

type serverSide struct {
	n      *Network
	filter func(grid.Cell) bool // nil: broadcasts cover every cell
}

func (s serverSide) Downlink(to model.ObjectID, m protocol.Message) {
	n := s.n
	n.counters.RecordSend(metrics.Downlink, m.Kind(), protocol.EncodedSize(m))
	if n.trace != nil {
		n.emit(obs.EvNetSend, metrics.Downlink, to, m.Kind())
	}
	n.enqueue(queued{dir: metrics.Downlink, peer: to, msg: m})
}

// Broadcast accounts one region broadcast at send time — one cell-level
// transmission per accepted cell the region covers — and queues it; a
// broadcast that reaches no cell is neither traced nor queued.
func (s serverSide) Broadcast(region geo.Circle, m protocol.Message) {
	n := s.n
	cells := 0
	n.cfg.Geometry.VisitCellsIntersecting(region, func(c grid.Cell) bool {
		if s.filter == nil || s.filter(c) {
			cells++
		}
		return true
	})
	if cells == 0 {
		return
	}
	n.counters.RecordSendN(metrics.Broadcast, m.Kind(), protocol.EncodedSize(m), cells)
	if n.trace != nil {
		n.emit(obs.EvNetSend, metrics.Broadcast, 0, m.Kind())
	}
	b := n.newBcast()
	b.region, b.filter = region, s.filter
	n.enqueue(queued{dir: metrics.Broadcast, msg: m, b: b})
}

type clientSide struct {
	n  *Network
	id model.ObjectID
}

func (c clientSide) Uplink(m protocol.Message) {
	n := c.n
	n.counters.RecordSend(metrics.Uplink, m.Kind(), protocol.EncodedSize(m))
	if n.trace != nil {
		n.emit(obs.EvNetSend, metrics.Uplink, c.id, m.Kind())
	}
	n.enqueue(queued{dir: metrics.Uplink, peer: c.id, msg: m})
}

// Shared implements transport.SharingSide: one slot per network, so the
// clients of one simulation share it and no other simulation touches it.
func (c clientSide) Shared() *atomic.Value { return &c.n.shared }

// enqueue stamps the due tick (base latency plus optional jitter) and
// buckets q, plus an independently jittered copy when the duplication
// fault fires. The copy of a broadcast gets a record of its own: it may
// deliver at another tick, after the original's record was recycled.
// Fault draws happen only when the respective fault is enabled, keeping
// zero-fault runs bit-identical to the pre-fault network.
func (n *Network) enqueue(q queued) {
	q.due = n.dueTick()
	n.push(q)
	if p := n.cfg.Faults.DuplicateProb; p > 0 && n.frng.Float64() < p {
		d := q
		d.due = n.dueTick()
		if q.b != nil {
			d.b = n.newBcast()
			*d.b = *q.b
		}
		n.push(d)
		n.dups[q.dir]++
	}
}

// newBcast takes a zeroed broadcast record from the free list, or
// allocates one.
func (n *Network) newBcast() *bcast {
	k := len(n.bfree)
	if k == 0 {
		return new(bcast)
	}
	b := n.bfree[k-1]
	n.bfree[k-1] = nil
	n.bfree = n.bfree[:k-1]
	return b
}

// freeBcast zeroes a delivered broadcast's record, so it pins no filter,
// and returns it to the free list.
func (n *Network) freeBcast(b *bcast) {
	*b = bcast{}
	n.bfree = append(n.bfree, b)
}

func (n *Network) dueTick() model.Tick {
	due := n.now + model.Tick(n.cfg.LatencyTicks)
	if j := n.cfg.Faults.JitterTicks; j > 0 {
		due += model.Tick(n.frng.Intn(j + 1))
	}
	return due
}

// push appends q to its due tick's bucket, growing the ring first if the
// pending due span would no longer fit.
func (n *Network) push(q queued) {
	if n.pending == 0 {
		n.bucketLow, n.bucketHigh = q.due, q.due+1
	} else {
		if q.due < n.bucketLow {
			n.bucketLow = q.due
		}
		if q.due >= n.bucketHigh {
			n.bucketHigh = q.due + 1
		}
	}
	if span := int(n.bucketHigh - n.bucketLow); span > len(n.buckets) {
		n.growBuckets(span)
	}
	idx := int(q.due) & (len(n.buckets) - 1)
	b := n.buckets[idx]
	if cap(b) == 0 {
		b, n.spare = n.spare, nil
	}
	n.buckets[idx] = append(b, q)
	n.pending++
}

// growBuckets doubles the ring until span due ticks fit and rehomes the
// pending entries. A bucket holds exactly one due tick (the span
// invariant held before the grow) and the new ring fits every pending
// tick, so each non-empty bucket moves wholesale to a slot of its own,
// which preserves FIFO order within every tick.
func (n *Network) growBuckets(span int) {
	old := n.buckets
	n.buckets = make([][]queued, ringSize(span))
	mask := len(n.buckets) - 1
	for _, b := range old {
		if len(b) > 0 {
			n.buckets[int(b[0].due)&mask] = b
		}
	}
}

// maxFlushRounds bounds handler-triggered cascades within one Flush. A
// correct protocol quiesces in a handful of rounds; hitting the limit is a
// protocol bug and panics loudly rather than livelocking the experiment.
const maxFlushRounds = 64

// Flush delivers every due message, including messages enqueued by
// handlers during this flush that are also due, and returns the number of
// deliveries performed (excluding drops).
func (n *Network) Flush() int {
	// Client positions may have changed since the last flush; the cell
	// index is re-resolved from the oracle at most once per Flush, on the
	// first broadcast delivery (see refreshCellIndex).
	n.indexFresh = false
	delivered := 0
	for round := 0; ; round++ {
		if round == maxFlushRounds {
			panic("simnet: message cascade did not quiesce; protocol livelock")
		}
		due := n.takeDue()
		if len(due) == 0 {
			n.parkNowBucket()
			n.trimQueue()
			return delivered
		}
		n.window.Observe(len(due))
		for i := range due {
			delivered += n.deliver(due[i])
		}
		clear(due)
	}
}

// takeDue hands the flush round every entry due at or before now, in
// due-tick order (FIFO within a tick), as the scratch slice. The first due
// bucket is not copied: it becomes the scratch and the emptied scratch
// takes its place in the ring, so what handlers enqueue during the round
// never lands in the slice the round is iterating. Only when a clock jump
// made more than one bucket due are the later ones appended. The scan
// starts at bucketLow and stops as soon as the pending count hits zero, so
// it visits at most the live span of the ring.
func (n *Network) takeDue() []queued {
	out := n.dueScratch[:0]
	if n.pending > 0 && n.bucketLow <= n.now {
		mask := len(n.buckets) - 1
		for t := n.bucketLow; t <= n.now && n.pending > 0; t++ {
			idx := int(t) & mask
			b := n.buckets[idx]
			if len(b) == 0 {
				continue
			}
			n.pending -= len(b)
			if len(out) == 0 {
				n.buckets[idx], out = out, b
				continue
			}
			out = append(out, b...)
			clear(b)
			n.buckets[idx] = b[:0]
		}
		n.bucketLow = n.now + 1
		if n.pending == 0 {
			n.bucketHigh = n.bucketLow
		}
	}
	n.dueScratch = out
	return out
}

// parkNowBucket moves the emptied array of the now bucket, which the
// flush has drained, into the spare when the spare has none, so the slot
// holds no array until a push lands in it.
func (n *Network) parkNowBucket() {
	idx := int(n.now) & (len(n.buckets) - 1)
	if b := n.buckets[idx]; len(b) == 0 && cap(b) > 0 && cap(n.spare) == 0 {
		n.spare, n.buckets[idx] = b, nil
	}
}

// trimQueue ends a flush's round of the capacity rule and, on a window's
// last, applies it to every bucket, the scratch, the spare and the free
// records — of which it keeps no more than a queue slice's worth — and
// to the audience scratch under its own window.
func (n *Network) trimQueue() {
	if keep, due := n.audience.EndRound(); due {
		n.recipients = container.Trim(n.recipients[:0], keep)
	}
	keep, due := n.window.EndRound()
	if !due {
		return
	}
	for i, b := range n.buckets {
		n.buckets[i] = container.Trim(b, keep)
	}
	n.dueScratch = container.Trim(n.dueScratch, keep)
	n.spare = container.Trim(n.spare, keep)
	if len(n.bfree) > keep {
		clear(n.bfree[keep:])
		n.bfree = n.bfree[:keep]
	}
	n.bfree = container.Trim(n.bfree, keep)
}

// PendingCount returns the number of queued (not yet delivered) entries;
// broadcasts count once regardless of audience size.
func (n *Network) PendingCount() int { return n.pending }

func (n *Network) deliver(q queued) int {
	switch q.dir {
	case metrics.Uplink:
		if n.server == nil || n.isDown(q.peer) || n.lose(n.cfg.UplinkLoss) || n.geLose(metrics.Uplink) {
			n.counters.RecordDrop(metrics.Uplink)
			if n.trace != nil {
				n.emit(obs.EvNetDrop, metrics.Uplink, q.peer, q.msg.Kind())
			}
			return 0
		}
		n.counters.RecordDeliver(metrics.Uplink)
		if n.trace != nil {
			n.emit(obs.EvNetDeliver, metrics.Uplink, q.peer, q.msg.Kind())
		}
		n.server.HandleUplink(q.peer, q.msg)
		return 1
	case metrics.Downlink:
		h := n.handlerOf(q.peer)
		if h == nil || n.isDown(q.peer) || n.lose(n.cfg.DownlinkLoss) || n.geLose(metrics.Downlink) {
			n.counters.RecordDrop(metrics.Downlink)
			if n.trace != nil {
				n.emit(obs.EvNetDrop, metrics.Downlink, q.peer, q.msg.Kind())
			}
			return 0
		}
		n.counters.RecordDeliver(metrics.Downlink)
		if n.trace != nil {
			n.emit(obs.EvNetDeliver, metrics.Downlink, q.peer, q.msg.Kind())
		}
		h.HandleServerMessage(q.msg)
		return 1
	case metrics.Broadcast:
		if n.positions == nil {
			panic("simnet: broadcast without a position oracle")
		}
		var delivered int
		if n.refBroadcast != nil {
			delivered = n.refBroadcast(q)
		} else {
			n.refreshCellIndex()
			delivered = n.deliverBroadcast(q.b.region, q.b.filter, q.msg)
		}
		n.freeBcast(q.b)
		return delivered
	default:
		panic("simnet: unknown direction")
	}
}

// handlerOf resolves an id that arrives from outside the table — a
// downlink's recipient, or an audience entry whose slot changed hands —
// to its current handler, nil when the id is not attached.
func (n *Network) handlerOf(id model.ObjectID) transport.ClientHandler {
	if s, ok := n.slotOf[id]; ok {
		return n.slots[s].handler
	}
	return nil
}

// isDown reports whether id is marked crashed. The set is empty in every
// run without churn, which is what the hot paths test first.
func (n *Network) isDown(id model.ObjectID) bool { return len(n.down) > 0 && n.down[id] }

// deliverBroadcast fans msg out to every client whose cell intersects the
// region and passes the filter. The audience comes from the per-cell
// index — only the region's cells are visited, so cost is output-sensitive
// — and is sorted by id (packed entries order by their id half) so the
// fan-out order, and with it the per-recipient loss-RNG draw order, is
// that of a scan over all clients in id order.
func (n *Network) deliverBroadcast(region geo.Circle, filter func(grid.Cell) bool, msg protocol.Message) int {
	rec := n.recipients[:0]
	n.cfg.Geometry.VisitCellsIntersecting(region, func(c grid.Cell) bool {
		if filter == nil || filter(c) {
			rec = append(rec, n.cells[n.cfg.Geometry.CellIndex(c)]...)
		}
		return true
	})
	slices.Sort(rec)
	n.recipients = rec
	n.audience.Observe(len(rec))
	return n.fanout(rec, msg)
}

// fanout transmits msg to the gathered, id-sorted audience, applying the
// per-recipient drop checks and loss draws in audience order.
func (n *Network) fanout(rec []entry, msg protocol.Message) int {
	delivered := 0
	for _, e := range rec {
		id := e.id()
		// The audience is a snapshot: a handler earlier in this fan-out may
		// have detached this client, and its slot may since have gone to
		// another id. An entry whose slot no longer holds its id resolves by
		// id instead — delivered if the id is attached (elsewhere) now, a
		// counted drop if not — never a call through a stale slot.
		c := &n.slots[e.slot()]
		h := c.handler
		if c.id != id || h == nil {
			h = n.handlerOf(id)
		}
		if h == nil || n.isDown(id) || n.lose(n.cfg.BroadcastLoss) || n.geLose(metrics.Broadcast) {
			n.counters.RecordDrop(metrics.Broadcast)
			if n.trace != nil {
				n.emit(obs.EvNetDrop, metrics.Broadcast, id, msg.Kind())
			}
			continue
		}
		n.counters.RecordDeliver(metrics.Broadcast)
		if n.trace != nil {
			n.emit(obs.EvNetDeliver, metrics.Broadcast, id, msg.Kind())
		}
		h.HandleServerMessage(msg)
		delivered++
	}
	return delivered
}

// refreshCellIndex re-resolves every attached client's cell through the
// position oracle, once per Flush: a sequential walk over the client
// table with one oracle call per client. A placed client whose position
// still lies between its cell's edges costs four comparisons more;
// only the others go through CellOf, and only those that changed cell
// touch a cell list. Clients the oracle cannot place leave the index.
func (n *Network) refreshCellIndex() {
	if n.indexFresh {
		return
	}
	n.indexFresh = true
	xs, ys := n.xs, n.ys
	for s := range n.slots {
		c := &n.slots[s]
		if c.handler == nil {
			continue
		}
		pos, ok := n.positions(c.id)
		if ok && c.cell >= 0 && xs != nil &&
			xs[c.col] <= pos.X && pos.X < xs[c.col+1] && ys[c.row] <= pos.Y && pos.Y < ys[c.row+1] {
			continue
		}
		n.placeAt(int32(s), pos, ok)
	}
}

// placeSlot moves the client in slot s to the cell of its current oracle
// position, or out of the index when the oracle cannot place it.
func (n *Network) placeSlot(s int32) {
	var pos geo.Point
	ok := false
	if n.positions != nil {
		pos, ok = n.positions(n.slots[s].id)
	}
	n.placeAt(s, pos, ok)
}

// placeAt moves the client in slot s to the cell of pos, or out of the
// index when ok is false (the oracle could not place it).
func (n *Network) placeAt(s int32, pos geo.Point, ok bool) {
	cell := int32(-1)
	var gc grid.Cell
	if ok {
		gc = n.cfg.Geometry.CellOf(pos)
		cell = int32(n.cfg.Geometry.CellIndex(gc))
	}
	c := &n.slots[s]
	if c.cell == cell {
		return
	}
	if c.cell >= 0 {
		n.removeFromCell(c.cell, c.at)
	}
	c.cell, c.col, c.row = cell, int16(gc.Col), int16(gc.Row)
	if cell >= 0 {
		c.at = int32(len(n.cells[cell]))
		n.cells[cell] = append(n.cells[cell], pack(c.id, s))
	}
}

// removeFromCell unlinks the entry at position at of a cell's list using
// swap-with-last; the entry moved into the hole learns its new position
// through its slot number.
func (n *Network) removeFromCell(cell, at int32) {
	list := n.cells[cell]
	last := int32(len(list) - 1)
	if at != last {
		moved := list[last]
		list[at] = moved
		n.slots[moved.slot()].at = at
	}
	n.cells[cell] = list[:last]
}

func (n *Network) lose(p float64) bool {
	return p > 0 && n.rng.Float64() < p
}

// geLose advances the direction's Gilbert–Elliott chain one delivery
// attempt and reports whether the attempt is lost. Disabled channels
// consume no randomness.
func (n *Network) geLose(dir metrics.Direction) bool {
	var g GEChannel
	switch dir {
	case metrics.Uplink:
		g = n.cfg.Faults.UplinkGE
	case metrics.Downlink:
		g = n.cfg.Faults.DownlinkGE
	case metrics.Broadcast:
		g = n.cfg.Faults.BroadcastGE
	}
	if !g.enabled() {
		return false
	}
	p := g.LossGood
	if n.geBad[dir] {
		p = g.LossBad
	}
	lost := p > 0 && n.frng.Float64() < p
	if n.geBad[dir] {
		if g.PBadGood > 0 && n.frng.Float64() < g.PBadGood {
			n.geBad[dir] = false
		}
	} else {
		if g.PGoodBad > 0 && n.frng.Float64() < g.PGoodBad {
			n.geBad[dir] = true
		}
	}
	return lost
}
