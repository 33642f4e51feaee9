package shard

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// Options selects the server's ingest discipline.
type Options struct {
	// Batched switches the server from synchronous ingest (HandleUplink
	// processes under the owning shard's lock before returning) to
	// batch-per-tick ingest: HandleUplink appends to a per-shard queue and
	// a Drain phase processes all queued arrivals shard-parallel. The
	// synchronous path is the oracle; the batched pipeline is proven
	// byte-identical to it on the client wire (see batch_property_test.go
	// and DESIGN.md).
	Batched bool
	// Workers bounds the worker pool Drain/Tick/Finalize run shards on in
	// batched mode. Zero means min(shards, GOMAXPROCS).
	Workers int
}

// ingestQueue is one shard's arrival buffer. Appends are serialized by
// the mutex (transport goroutines may enqueue concurrently); Drain swaps
// buf out under the same mutex, so processing never holds it.
type ingestQueue struct {
	mu   sync.Mutex
	buf  []core.Ingest
	proc []core.Ingest
}

// pendingSend is one deferred transmission captured by a shard's
// batchSide during a drain or tick, tagged with the ordering key that
// reconstructs the synchronous server's global send order.
type pendingSend struct {
	key       uint64
	broadcast bool
	to        model.ObjectID
	region    geo.Circle
	msg       protocol.Message
}

// batchSide is the ServerSide handed to one shard's core server in
// batched mode: sends are captured, not transmitted. The medium is only
// touched later by flushSends, on the driver goroutine, after the sends
// of all shards are merged back into arrival order. Each batchSide
// belongs to exactly one shard and a shard runs on one worker at a
// time, so no locking is needed.
//
// Two key regimes cover the two kinds of phases. During Drain, key is
// stamped per processed arrival with its global ingest sequence number
// (the before hook of core.HandleUplinkBatch), because the synchronous
// server emits sends in arrival order. During Tick/Finalize, byQuery is
// set and the key is the query id carried by the outgoing message,
// because the synchronous server iterates its queries in sorted id
// order and each query id lives on exactly one shard. The two regimes
// are never merged into one sort: flushSends runs once per phase.
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

// enqueue appends one arrival to the owning shard's queue. The sequence
// number is taken inside the queue lock so each queue's buffer order is
// seq-monotone even under concurrent transport goroutines.
func (s *Server) enqueue(q model.QueryID, from model.ObjectID, msg protocol.Message) {
	iq := &s.queues[int(uint32(q))%len(s.shards)]
	iq.mu.Lock()
	iq.buf = append(iq.buf, core.Ingest{Seq: s.seq.Add(1), From: from, Msg: msg})
	iq.mu.Unlock()
}

// enqueueGone appends a disconnect marker to every shard's queue: the
// vanished client may participate in queries of every shard, and the
// purge must hold its place in each shard's arrival order so a
// disconnect racing a drain is never lost (it lands either in the
// buffer being swapped out or in the fresh one — both get processed).
func (s *Server) enqueueGone(id model.ObjectID) {
	for i := range s.queues {
		iq := &s.queues[i]
		iq.mu.Lock()
		iq.buf = append(iq.buf, core.Ingest{Seq: s.seq.Add(1), From: id})
		iq.mu.Unlock()
	}
}

// Drain processes every queued arrival, shard-parallel on the bounded
// worker pool, then transmits the captured sends merged back into
// arrival order. It reports whether any arrival was processed. Tick and
// Finalize call it themselves; a driver that wants the phase timed on
// its own (bench/) calls it just before, which leaves theirs nothing to
// do — on empty queues, and in synchronous mode, it returns before
// touching a shard. Drain must run on the driver goroutine (the one that
// owns the medium); only the per-shard processing is parallel.
func (s *Server) Drain(now model.Tick) bool {
	if !s.opts.Batched {
		return false
	}
	any := false
	for i := range s.queues {
		iq := &s.queues[i]
		iq.mu.Lock()
		iq.buf, iq.proc = iq.proc[:0], iq.buf
		iq.mu.Unlock()
		if len(iq.proc) > 0 {
			any = true
		}
	}
	if !any {
		return false
	}
	s.parallelShards(func(i int, sh *core.Server) {
		side := s.sides[i]
		side.byQuery = false
		sh.HandleUplinkBatch(s.queues[i].proc, func(in core.Ingest) { side.key = in.Seq })
	})
	s.flushSends()
	return true
}

// flushSends merges the shards' captured sends into key order and
// transmits them on the real medium. The stable sort preserves each
// shard's emission order within a key, runs of adjacent broadcasts are
// handed to the medium as one batch when it supports that, and the time
// spent here is accounted as serialized driver work in BusyTime.
func (s *Server) flushSends() bool {
	merged := s.merged[:0]
	for _, side := range s.sides {
		merged = append(merged, side.sends...)
		side.sends = side.sends[:0]
	}
	s.merged = merged
	if len(merged) == 0 {
		return false
	}
	start := time.Now()
	slices.SortStableFunc(merged, func(a, b pendingSend) int { return cmp.Compare(a.key, b.key) })
	for i := 0; i < len(merged); {
		if !merged[i].broadcast {
			s.out.Downlink(merged[i].to, merged[i].msg)
			i++
			continue
		}
		j := i + 1
		for j < len(merged) && merged[j].broadcast {
			j++
		}
		if s.batchOut != nil && j-i > 1 {
			items := s.items[:0]
			for _, ps := range merged[i:j] {
				items = append(items, transport.BroadcastItem{Region: ps.region, Msg: ps.msg})
			}
			s.items = items
			s.batchOut.BroadcastBatch(items)
		} else {
			for _, ps := range merged[i:j] {
				s.out.Broadcast(ps.region, ps.msg)
			}
		}
		i = j
	}
	s.flushBusy += time.Since(start)
	return true
}

// parallelShards runs fn over every shard on at most s.workers
// goroutines, pulling shard indices from a shared counter.
func (s *Server) parallelShards(fn func(i int, sh *core.Server)) {
	w := s.workers
	if w > len(s.shards) {
		w = len(s.shards)
	}
	if w <= 1 || len(s.shards) == 1 {
		for i, sh := range s.shards {
			fn(i, sh)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.shards) {
					return
				}
				fn(i, s.shards[i])
			}
		}()
	}
	wg.Wait()
}

func defaultWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); p < n {
		return p
	}
	return n
}
