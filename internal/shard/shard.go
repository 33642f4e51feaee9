// Package shard scales the DKNN server across CPU cores: queries are
// partitioned over S independent core.Server instances ("shards"), each
// owning the complete monitor state of its query subset. Every protocol
// message after registration carries its query id, so routing is exact
// and shards share nothing; the per-tick maintenance work then runs in
// parallel.
//
// Two ingest disciplines are available (Options.Batched). The default
// synchronous mode processes each uplink under the owning shard's lock
// as it arrives. The batched mode turns HandleUplink into an enqueue
// onto a per-shard arrival queue and processes whole ticks of arrivals
// in a Drain phase, shard-parallel on a bounded worker pool, with the
// outgoing sends of all shards merged back into the synchronous server's
// global send order before they touch the medium. Tick and Finalize
// drain first, so either mode is driven like any other core.Engine;
// Drain is exported for drivers that want the phase timed on its own.
// Both modes are byte-identical to the single-server DKNN on the client
// wire — the batched one by the ordering argument in DESIGN.md, pinned
// by the property tests in this package.
//
// This is the follow-up-literature "scalable distributed processing"
// extension: the wireless side of the protocol is unchanged (objects and
// query clients cannot tell they talk to a sharded server), only the
// server's interior is parallelized.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// Server is a query-sharded DKNN server.
type Server struct {
	shards []*core.Server
	opts   Options

	// Batched-mode state (zero in synchronous mode). out is the real
	// medium; the core servers write to their shard's capture side
	// instead, and flushSends replays the merged sends onto out from the
	// driver goroutine. seq numbers arrivals globally so the merge can
	// reconstruct arrival order across queues.
	out      transport.ServerSide
	batchOut transport.BatchServerSide
	sides    []*batchSide
	queues   []ingestQueue
	seq      atomic.Uint64
	workers  int

	merged    []pendingSend
	items     []transport.BroadcastItem
	flushBusy time.Duration
}

// New builds a sharded server with n shards, all configured identically,
// in the default synchronous-ingest mode.
func New(n int, cfg core.Config, deps core.ServerDeps) (*Server, error) {
	return NewWithOptions(n, cfg, deps, Options{})
}

// NewWithOptions builds a sharded server with the given ingest options.
func NewWithOptions(n int, cfg core.Config, deps core.ServerDeps, opts Options) (*Server, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	s := &Server{shards: make([]*core.Server, n), opts: opts}
	if opts.Batched {
		if deps.Side == nil {
			return nil, fmt.Errorf("shard: batched mode needs a server side")
		}
		s.out = deps.Side
		s.batchOut, _ = deps.Side.(transport.BatchServerSide)
		s.sides = make([]*batchSide, n)
		s.queues = make([]ingestQueue, n)
		s.workers = opts.Workers
		if s.workers <= 0 {
			s.workers = defaultWorkers(n)
		}
	}
	for i := range s.shards {
		d := deps
		if opts.Batched {
			s.sides[i] = &batchSide{}
			d.Side = s.sides[i]
		}
		srv, err := core.NewServer(cfg, d)
		if err != nil {
			return nil, err
		}
		s.shards[i] = srv
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Batched reports whether the server runs the batched ingest pipeline.
func (s *Server) Batched() bool { return s.opts.Batched }

// shardFor routes a query id to its owning shard.
func (s *Server) shardFor(q model.QueryID) *core.Server {
	return s.shards[int(uint32(q))%len(s.shards)]
}

// HandleUplink implements transport.ServerHandler: messages route by the
// query id they carry; kinds without one (e.g. LocationReport) are
// dropped like the single server does. In batched mode this only
// enqueues — the message is processed at the next Drain.
func (s *Server) HandleUplink(from model.ObjectID, msg protocol.Message) {
	q, ok := protocol.QueryOf(msg)
	if !ok {
		return
	}
	if s.opts.Batched {
		s.enqueue(q, from, msg)
		return
	}
	s.shardFor(q).HandleUplink(from, msg)
}

// HandleClientGone implements transport.DisconnectHandler: a vanished
// client may participate in queries of every shard, so the purge fans
// out to all of them — in parallel in synchronous mode, and as a queued
// disconnect marker per shard in batched mode so the purge holds its
// place in each arrival order.
func (s *Server) HandleClientGone(id model.ObjectID) {
	if s.opts.Batched {
		s.enqueueGone(id)
		return
	}
	s.parallel(func(sh *core.Server) { sh.HandleClientGone(id) })
}

// Tick runs every shard's periodic work in parallel. In batched mode it
// first drains the tick's arrivals, exactly where the synchronous server
// would have processed them, then merges the captured sends into
// sorted-query order — the synchronous server's Tick iteration order —
// and transmits them before returning.
func (s *Server) Tick(now model.Tick) {
	if s.opts.Batched {
		s.Drain(now)
		s.parallelShards(func(i int, sh *core.Server) {
			s.sides[i].byQuery = true
			sh.Tick(now)
		})
		s.flushSends()
		return
	}
	s.parallel(func(sh *core.Server) { sh.Tick(now) })
}

// Finalize runs every shard's probe conclusions in parallel; it reports
// whether any shard still has work. In batched mode it first drains the
// arrival queues (probe replies delivered since the last drain must be
// in state before rounds conclude) and transmits each phase's sends in
// the synchronous server's order.
func (s *Server) Finalize(now model.Tick) bool {
	if s.opts.Batched {
		drained := s.Drain(now)
		var concluded atomic.Bool
		s.parallelShards(func(i int, sh *core.Server) {
			s.sides[i].byQuery = true
			if sh.Finalize(now) {
				concluded.Store(true)
			}
		})
		s.flushSends()
		return drained || concluded.Load()
	}
	results := make([]bool, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *core.Server) {
			defer wg.Done()
			results[i] = sh.Finalize(now)
		}(i, sh)
	}
	wg.Wait()
	for _, r := range results {
		if r {
			return true
		}
	}
	return false
}

func (s *Server) parallel(fn func(*core.Server)) {
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *core.Server) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

// Answer returns the maintained answer for q from its owning shard.
func (s *Server) Answer(q model.QueryID) model.Answer {
	return s.shardFor(q).Answer(q)
}

// QueryCount returns the number of registered queries across all shards.
func (s *Server) QueryCount() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.QueryCount()
	}
	return total
}

// BusyTime returns the *maximum* per-shard processing time — the
// wall-clock critical path of the parallel server, which is what the
// scaling experiment measures — plus, in batched mode, the serialized
// driver time spent merging and transmitting sends.
func (s *Server) BusyTime() time.Duration {
	var max time.Duration
	for _, sh := range s.shards {
		if b := sh.BusyTime(); b > max {
			max = b
		}
	}
	return max + s.flushBusy
}

var (
	_ core.Engine                 = (*Server)(nil)
	_ transport.DisconnectHandler = (*Server)(nil)
)
