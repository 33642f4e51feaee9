package main

import (
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/cluster"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// The wrappers below sit on the seams the system already exposes
// (transport.ServerHandler, ServerSide, ClientSide, ClientHandler and
// cluster.Link) and time or count what crosses them. The untraced pass
// installs only handlerWrap, for the always-on server-entry timer (and,
// on tcp, the barrier bookkeeping the lockstep loop needs); everything
// else is installed for the traced pass alone.

// numKinds bounds the per-kind tallies; protocol kinds are small and
// dense.
const numKinds = 32

// sampleCap is how many messages per direction the codec replay keeps.
const sampleCap = 2048

// tally holds the traced pass's counts. Atomic because on tcp the seams
// are crossed on transport goroutines.
type tally struct {
	ingestN  [numKinds]atomic.Int64 // uplinks through the handler seam, by kind
	ingestNS [numKinds]atomic.Int64
	sendN    [numKinds]atomic.Int64 // logical Downlink/Broadcast calls, by kind
	bcasts   atomic.Int64           // logical broadcasts (batch items count one each)
	batches  atomic.Int64           // BroadcastBatch calls
	batchIt  atomic.Int64           // items inside those batches
	handled  atomic.Int64           // messages through the client-handler seam
	regional atomic.Int64           // ... of which carried a region (probe/install)
	useful   atomic.Int64           // ... whose region contained the recipient
	bytesOut atomic.Int64           // tcp: frame bytes written by the server
	// sendInNS is send time by enclosing server entry point on tcp,
	// where spans close on transport goroutines and cannot nest on the
	// recorder's stack.
	sendInNS [numSpanNames]atomic.Int64

	up, down sampler
}

// sampler keeps the first sampleCap messages it is offered; once full an
// offer costs one atomic load.
type sampler struct {
	full atomic.Bool
	mu   sync.Mutex
	msgs []protocol.Message
}

func (s *sampler) add(m protocol.Message) {
	if s.full.Load() {
		return
	}
	s.mu.Lock()
	if len(s.msgs) < sampleCap {
		s.msgs = append(s.msgs, m)
	}
	s.full.Store(len(s.msgs) >= sampleCap)
	s.mu.Unlock()
}

// barrier detects quiescence of the socket medium by counting: every
// uplink is counted before it is written and again after the server
// handled it; every frame is counted before it is written and again
// after its client handled it. The counters only grow, a handler counts
// its completion last, and the completion counters are read before the
// issue counters, so equal pairs prove that nothing was in flight at the
// moment between the two reads — and with the driver blocked, nothing
// can start.
type barrier struct {
	upWritten  atomic.Int64
	upHandled  atomic.Int64
	frExpected atomic.Int64
	frHandled  atomic.Int64
	wake       chan struct{}
}

func newBarrier() *barrier { return &barrier{wake: make(chan struct{}, 1)} }

func (b *barrier) quiet() bool {
	uh, fh := b.upHandled.Load(), b.frHandled.Load()
	return b.upWritten.Load() == uh && b.frExpected.Load() == fh
}

// completed is called by a handler after it counted its completion: the
// one that completes last sees the balanced counters and wakes the
// driver, so the driver sleeps through everything in between.
func (b *barrier) completed() {
	if b.quiet() {
		select {
		case b.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks the driver until the medium is quiescent; it reports false
// after timeout without quiescence.
func (b *barrier) wait(timeout time.Duration) bool {
	if b.quiet() {
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case <-b.wake:
			if b.quiet() {
				return true
			}
		case <-timer.C:
			return b.quiet()
		}
	}
}

// handlerWrap is the server-handler seam. It is installed in every pass.
type handlerWrap struct {
	inner transport.ServerHandler
	ns    *atomic.Int64 // always-on timer: time inside server entry points
	bar   *barrier      // tcp only
	gone  *atomic.Int64 // tcp only: disconnects seen while measuring
	rec   *recorder     // traced pass only, with tl
	tl    *tally
	flat  bool // spans close beside the driver (tcp)
}

func (h *handlerWrap) HandleUplink(from model.ObjectID, m protocol.Message) {
	if h.rec == nil {
		start := time.Now()
		h.inner.HandleUplink(from, m)
		h.ns.Add(int64(time.Since(start)))
	} else {
		h.traced(from, m)
	}
	if h.bar != nil {
		h.bar.upHandled.Add(1)
		h.bar.completed()
	}
}

func (h *handlerWrap) traced(from model.ObjectID, m protocol.Message) {
	k := m.Kind()
	if !h.rec.active() {
		h.inner.HandleUplink(from, m)
		return
	}
	h.tl.up.add(m)
	var dur int64
	if h.flat {
		start := h.rec.now()
		h.inner.HandleUplink(from, m)
		end := h.rec.now()
		h.rec.flat(spIngest, start, end)
		dur = end - start
	} else {
		h.rec.begin(spIngest)
		h.inner.HandleUplink(from, m)
		dur = int64(h.rec.end())
	}
	h.ns.Add(dur)
	h.tl.ingestN[k].Add(1)
	h.tl.ingestNS[k].Add(dur)
}

// HandleClientGone forwards disconnects (connection-oriented media only)
// and counts them: during measurement a disconnect is a failure.
func (h *handlerWrap) HandleClientGone(id model.ObjectID) {
	if h.gone != nil {
		h.gone.Add(1)
	}
	if dh, ok := h.inner.(transport.DisconnectHandler); ok {
		start := time.Now()
		dh.HandleClientGone(id)
		h.ns.Add(int64(time.Since(start)))
	}
}

// sideWrap is the server-side sending seam.
type sideWrap struct {
	inner transport.ServerSide
	rec   *recorder
	tl    *tally
	// tcp only: bar counts the frames a send will write before writing
	// them, conns is the connected population a broadcast fans out to,
	// and driverCall names the driver-issued server call (Tick/Finalize)
	// in progress, if any. The driver issues one only at quiescence and
	// it holds the server's lock throughout, so a send that sees it set
	// runs inside that call; any other send runs in an uplink handler.
	bar        *barrier
	conns      int64
	driverCall *atomic.Int32
}

func (s *sideWrap) Downlink(to model.ObjectID, m protocol.Message) {
	s.send(m, 1, func() { s.inner.Downlink(to, m) })
}

func (s *sideWrap) Broadcast(region geo.Circle, m protocol.Message) {
	if s.rec.active() {
		s.tl.bcasts.Add(1)
	}
	s.send(m, s.conns, func() { s.inner.Broadcast(region, m) })
}

func (s *sideWrap) send(m protocol.Message, frames int64, do func()) {
	if s.bar != nil {
		s.bar.frExpected.Add(frames)
	}
	if !s.rec.active() {
		do()
		return
	}
	s.tl.sendN[m.Kind()].Add(1)
	s.tl.down.add(m)
	if s.bar == nil {
		s.rec.begin(spSend)
		do()
		s.rec.end()
		return
	}
	start := s.rec.now()
	do()
	end := s.rec.now()
	s.rec.flat(spSend, start, end)
	s.tl.bytesOut.Add(frames * int64(protocol.EncodedSize(m)+4))
	s.tl.sendInNS[s.driverCall.Load()].Add(end - start)
}

// batchSideWrap adds the optional batch surface, so wrapping a medium
// that takes whole-drain broadcast batches keeps that path in use.
type batchSideWrap struct {
	sideWrap
	batch transport.BatchServerSide
}

func (s *batchSideWrap) BroadcastBatch(items []transport.BroadcastItem) {
	if !s.rec.active() {
		s.batch.BroadcastBatch(items)
		return
	}
	s.tl.batches.Add(1)
	s.tl.batchIt.Add(int64(len(items)))
	s.tl.bcasts.Add(int64(len(items)))
	for _, it := range items {
		s.tl.sendN[it.Msg.Kind()].Add(1)
		s.tl.down.add(it.Msg)
	}
	s.rec.begin(spSend)
	s.batch.BroadcastBatch(items)
	s.rec.end()
}

// wrapSide wraps a simulated medium's server side for the traced pass.
func wrapSide(inner transport.ServerSide, rec *recorder, tl *tally) transport.ServerSide {
	if rec == nil {
		return inner
	}
	w := sideWrap{inner: inner, rec: rec, tl: tl}
	if b, ok := inner.(transport.BatchServerSide); ok {
		return &batchSideWrap{sideWrap: w, batch: b}
	}
	return &w
}

// clientWrap is the client-handler seam of one mobile client.
type clientWrap struct {
	inner transport.ClientHandler
	pos   func() geo.Point
	bar   *barrier
	rec   *recorder
	tl    *tally
	flat  bool
}

func (c *clientWrap) HandleServerMessage(m protocol.Message) {
	if !c.rec.active() {
		c.inner.HandleServerMessage(m)
	} else {
		c.traced(m)
	}
	if c.bar != nil {
		c.bar.frHandled.Add(1)
		c.bar.completed()
	}
}

func (c *clientWrap) traced(m protocol.Message) {
	c.tl.handled.Add(1)
	if region, ok := regionOf(m); ok {
		c.tl.regional.Add(1)
		if region.Contains(c.pos()) {
			c.tl.useful.Add(1)
		}
	}
	if c.flat {
		start := c.rec.now()
		c.inner.HandleServerMessage(m)
		c.rec.flat(spAgentsHandle, start, c.rec.now())
		return
	}
	c.rec.begin(spAgentsHandle)
	c.inner.HandleServerMessage(m)
	c.rec.end()
}

// regionOf returns the region a region-scoped broadcast addresses.
func regionOf(m protocol.Message) (geo.Circle, bool) {
	switch v := m.(type) {
	case protocol.ProbeRequest:
		return v.Region, true
	case protocol.MonitorInstall:
		return v.Region(), true
	case protocol.InfluenceInstall:
		return v.Region(), true
	}
	return geo.Circle{}, false
}

// uplinkWrap is the client-side sending seam on tcp: it counts the
// uplink for the barrier before writing it and, traced, times the write.
type uplinkWrap struct {
	inner transport.ClientSide
	bar   *barrier
	rec   *recorder
}

func (u *uplinkWrap) Uplink(m protocol.Message) {
	u.bar.upWritten.Add(1)
	if !u.rec.active() {
		u.inner.Uplink(m)
		return
	}
	start := u.rec.now()
	u.inner.Uplink(m)
	u.rec.flat(spUplinkWrite, start, u.rec.now())
}

// linkWrap is the inter-node link seam of the federation.
type linkWrap struct {
	inner cluster.Link
	rec   *recorder
}

func (l *linkWrap) Send(from, to int, m protocol.Message) { l.inner.Send(from, to, m) }

func (l *linkWrap) Flush() int {
	l.rec.begin(spLinkDeliver)
	n := l.inner.Flush()
	l.rec.end()
	return n
}

func (l *linkWrap) Stats() cluster.LinkStats { return l.inner.Stats() }
