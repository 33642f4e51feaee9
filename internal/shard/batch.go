package shard

import (
	"cmp"
	"slices"
	"sync"

	"dmknn/internal/container"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/par"
	"dmknn/internal/protocol"
)

// Options tunes the server's ingest pipeline.
type Options struct {
	// Deprecated: every Server runs the batched ingest pipeline; the field is ignored.
	Batched bool
	// Workers bounds the worker pool Drain/Tick/Finalize run shards on
	// (par.Each). Zero means min(shards, GOMAXPROCS).
	Workers int
}

// ingestQueue is one shard's arrival buffer. Appends are serialized by
// the mutex (transport goroutines may enqueue concurrently); Drain swaps
// buf out under the same mutex, so processing never holds it. Every slot
// past len of buf and proc is the zero Ingest, and window, which only the
// draining worker touches, bounds their capacity (see consumed).
type ingestQueue struct {
	mu     sync.Mutex
	buf    []core.Ingest
	proc   []core.Ingest
	window container.Window
}

// consumed zeroes the processed arrivals, so the retained array pins no
// message, and ends the queue's round of the capacity rule
// (container.Window): at a window's end both buffers give back what the
// window did not need, buf under the lock because arrivals may have
// landed in it since the swap.
func (iq *ingestQueue) consumed() {
	iq.window.Observe(len(iq.proc))
	clear(iq.proc)
	iq.proc = iq.proc[:0]
	keep, due := iq.window.EndRound()
	if !due {
		return
	}
	iq.proc = container.Trim(iq.proc, keep)
	iq.mu.Lock()
	iq.buf = container.Trim(iq.buf, keep)
	iq.mu.Unlock()
}

// pendingSend is one deferred transmission captured by a shard's
// batchSide during a drain or tick, tagged with the ordering key that
// reconstructs the single server's global send order.
type pendingSend struct {
	key       uint64
	broadcast bool
	to        model.ObjectID
	region    geo.Circle
	msg       protocol.Message
}

// batchSide is the ServerSide handed to one shard's core server: sends
// are captured, not transmitted. The medium is only touched later by
// flushSends, on the driver goroutine, after the sends of all shards are
// merged back into arrival order. Each batchSide belongs to exactly one
// shard and a shard runs on one worker at a time, so no locking is
// needed.
//
// Two key regimes cover the two kinds of phases. During Drain, key is
// stamped per processed arrival with its global ingest sequence number
// (the before hook of core.HandleUplinkBatch), because the single
// server emits sends in arrival order. During Tick/Finalize, byQuery is
// set and the key is the query id carried by the outgoing message,
// because the single server iterates its queries in sorted id order and
// each query id lives on exactly one shard. The two regimes are never
// merged into one sort: flushSends runs once per phase.
type batchSide struct {
	key     uint64
	byQuery bool
	sends   []pendingSend
}

func (b *batchSide) sendKey(m protocol.Message) uint64 {
	if !b.byQuery {
		return b.key
	}
	if q, ok := protocol.QueryOf(m); ok {
		return uint64(uint32(q))
	}
	return 0
}

func (b *batchSide) Downlink(to model.ObjectID, m protocol.Message) {
	b.sends = append(b.sends, pendingSend{key: b.sendKey(m), to: to, msg: m})
}

func (b *batchSide) Broadcast(region geo.Circle, m protocol.Message) {
	b.sends = append(b.sends, pendingSend{key: b.sendKey(m), broadcast: true, region: region, msg: m})
}

// Drain processes every queued arrival, shard-parallel on the bounded
// worker pool, then transmits the captured sends merged back into
// arrival order. It reports whether any arrival was processed. Tick and
// Finalize drain first themselves; a driver that wants the phase timed on
// its own (bench/) calls Drain just before, which leaves theirs nothing
// to do — on empty queues drain returns before touching a shard. Drain
// must run on the driver goroutine (the one that owns the medium); only
// the per-shard processing is parallel. Its time counts in BusyTime.
func (s *Server) Drain(now model.Tick) bool {
	defer s.track(obs.Now())
	return s.drain()
}

// drain is Drain without the clock, for the phases that time themselves.
func (s *Server) drain() bool {
	any := false
	for i := range s.queues {
		iq := &s.queues[i]
		iq.mu.Lock()
		iq.buf, iq.proc = iq.proc, iq.buf
		iq.mu.Unlock()
		if len(iq.proc) > 0 {
			any = true
		}
	}
	if !any {
		return false
	}
	par.Each(len(s.shards), s.workers, s.drainStep)
	s.flushSends()
	return true
}

// drainShard processes shard i's swapped-out arrivals, its sends keyed by
// the arrival that triggered them, and then zeroes them (consumed).
func (s *Server) drainShard(_, i int) {
	side, iq := s.sides[i], &s.queues[i]
	side.byQuery = false
	s.shards[i].HandleUplinkBatch(iq.proc, func(in core.Ingest) { side.key = in.Seq })
	iq.consumed()
}

// flushSends merges the shards' captured sends and transmits them. Every
// send buffer is zeroed once its entries are passed on, so no retained
// array pins a message, and every flush is one round of the capacity rule
// for all of them (see trimSends).
func (s *Server) flushSends() {
	merged := s.merged
	for _, side := range s.sides {
		merged = append(merged, side.sends...)
		clear(side.sends)
		side.sends = side.sends[:0]
	}
	if len(merged) > 0 {
		s.transmit(merged)
		clear(merged)
	}
	s.merged = merged[:0]
	s.trimSends(len(merged))
}

// transmit replays merged onto the real medium in key order, one
// Downlink or Broadcast per send, exactly the calls the single server
// makes. The stable sort preserves each shard's emission order within a
// key.
func (s *Server) transmit(merged []pendingSend) {
	slices.SortStableFunc(merged, func(a, b pendingSend) int { return cmp.Compare(a.key, b.key) })
	for _, ps := range merged {
		if ps.broadcast {
			s.out.Broadcast(ps.region, ps.msg)
		} else {
			s.out.Downlink(ps.to, ps.msg)
		}
	}
}

// trimSends ends a flush's round of the capacity rule
// (container.Window) for the send buffers. A round put n sends through
// merged, and no side's sends hold more, so one window bounds them all.
func (s *Server) trimSends(n int) {
	s.sendWindow.Observe(n)
	keep, due := s.sendWindow.EndRound()
	if !due {
		return
	}
	for _, side := range s.sides {
		side.sends = container.Trim(side.sends, keep)
	}
	s.merged = container.Trim(s.merged, keep)
}
