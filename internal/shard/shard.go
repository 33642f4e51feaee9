// Package shard scales the DKNN server across CPU cores: queries are
// partitioned over S independent core.Server instances ("shards"), each
// owning the complete monitor state of its query subset. Every protocol
// message after registration carries its query id, so routing is exact
// and shards share nothing; the per-tick maintenance work then runs in
// parallel.
//
// Ingest is batched per tick. HandleUplink is an enqueue onto a
// per-shard arrival queue, and a Drain phase processes whole ticks of
// arrivals shard-parallel on a bounded worker pool, with the outgoing
// sends of all shards merged back into the single server's global send
// order before they touch the medium. Tick and Finalize drain first, so
// the server is driven like any other core.Engine; Drain is exported for
// drivers that want the phase timed on its own. The server is
// byte-identical to the single-server DKNN on the client wire, by the
// ordering argument in DESIGN.md, pinned by the property tests in this
// package.
//
// This is the follow-up-literature "scalable distributed processing"
// extension: the wireless side of the protocol is unchanged (objects and
// query clients cannot tell they talk to a sharded server), only the
// server's interior is parallelized.
package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"dmknn/internal/container"
	"dmknn/internal/core"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// Server is a query-sharded DKNN server.
type Server struct {
	shards []*core.Server

	// out is the real medium; the core servers write to their shard's
	// capture side instead, and flushSends replays the merged sends onto
	// out from the driver goroutine. seq numbers arrivals globally so the
	// merge can reconstruct arrival order across queues.
	out     transport.ServerSide
	sides   []*batchSide
	queues  []ingestQueue
	seq     atomic.Uint64
	workers int
	// drainStep is s.drainShard, bound once so that a drain allocates
	// nothing.
	drainStep func(int, *core.Server)

	merged     []pendingSend
	sendWindow container.Window
	// busy is the wall time Tick, Finalize and Drain took on the driver
	// goroutine, in nanoseconds; BusyTime reads it from any goroutine.
	busy atomic.Int64
}

// NewWithOptions builds a sharded server with n shards, all configured
// identically, sending on deps.Side.
func NewWithOptions(n int, cfg core.Config, deps core.ServerDeps, opts Options) (*Server, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if deps.Side == nil {
		return nil, fmt.Errorf("shard: need a server side")
	}
	s := &Server{
		shards:  make([]*core.Server, n),
		out:     deps.Side,
		sides:   make([]*batchSide, n),
		queues:  make([]ingestQueue, n),
		workers: opts.Workers,
	}
	s.drainStep = s.drainShard
	if s.workers <= 0 {
		s.workers = defaultWorkers(n)
	}
	for i := range s.shards {
		s.sides[i] = &batchSide{}
		d := deps
		d.Side = s.sides[i]
		srv, err := core.NewServer(cfg, d)
		if err != nil {
			return nil, err
		}
		s.shards[i] = srv
	}
	return s, nil
}

// shardOf routes a query id to the index of its owning shard.
func (s *Server) shardOf(q model.QueryID) int {
	return int(uint32(q)) % len(s.shards)
}

// HandleUplink implements transport.ServerHandler: messages route by the
// query id they carry; kinds without one (e.g. LocationReport) are
// dropped like the single server does. This only enqueues onto the
// owning shard's queue — the message is processed at the next Drain. The
// sequence number is taken inside the queue lock so each queue's buffer
// order is seq-monotone even under concurrent transport goroutines.
func (s *Server) HandleUplink(from model.ObjectID, msg protocol.Message) {
	q, ok := protocol.QueryOf(msg)
	if !ok {
		return
	}
	iq := &s.queues[s.shardOf(q)]
	iq.mu.Lock()
	iq.buf = append(iq.buf, core.Ingest{Seq: s.seq.Add(1), From: from, Msg: msg})
	iq.mu.Unlock()
}

// HandleClientGone implements transport.DisconnectHandler: a vanished
// client may participate in queries of every shard, so a disconnect
// marker goes onto every shard's queue. The purge holds its place in
// each shard's arrival order, so a disconnect racing a drain is never
// lost (it lands either in the buffer being swapped out or in the fresh
// one — both get processed).
func (s *Server) HandleClientGone(id model.ObjectID) {
	for i := range s.queues {
		iq := &s.queues[i]
		iq.mu.Lock()
		iq.buf = append(iq.buf, core.Ingest{Seq: s.seq.Add(1), From: id})
		iq.mu.Unlock()
	}
}

// Tick first drains the tick's arrivals, exactly where the single server
// would have processed them, then runs every shard's periodic work in
// parallel, merges the captured sends into sorted-query order — the
// single server's Tick iteration order — and transmits them before
// returning.
func (s *Server) Tick(now model.Tick) {
	defer s.track(obs.Now())
	s.drain()
	s.parallelShards(func(i int, sh *core.Server) {
		s.sides[i].byQuery = true
		sh.Tick(now)
	})
	s.flushSends()
}

// Finalize first drains the arrival queues (probe replies delivered
// since the last drain must be in state before rounds conclude), then
// runs every shard's probe conclusions in parallel and transmits each
// phase's sends in the single server's order. It reports whether any
// shard still has work.
func (s *Server) Finalize(now model.Tick) bool {
	defer s.track(obs.Now())
	drained := s.drain()
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

// Answer returns the maintained answer for q from its owning shard.
func (s *Server) Answer(q model.QueryID) model.Answer {
	return s.shards[s.shardOf(q)].Answer(q)
}

// QueryCount returns the number of registered queries across all shards.
func (s *Server) QueryCount() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.QueryCount()
	}
	return total
}

// Installs returns the install counts by cause summed over all shards.
func (s *Server) Installs() core.InstallCounts {
	var total core.InstallCounts
	for _, sh := range s.shards {
		total = total.Plus(sh.Installs())
	}
	return total
}

// BusyTime returns the wall time the server's Tick, Finalize and Drain
// calls took, each timed once on the driver goroutine: the shards'
// parallel work, the merge and the transmit as the clock saw them. The
// enqueue in HandleUplink is left out; it runs on the transport's
// goroutines, and its message is processed, and timed, at the next drain.
func (s *Server) BusyTime() time.Duration { return time.Duration(s.busy.Load()) }

// track adds the time since start to BusyTime.
func (s *Server) track(start obs.Stamp) { s.busy.Add(int64(start.Elapsed())) }

var (
	_ core.Engine                 = (*Server)(nil)
	_ transport.DisconnectHandler = (*Server)(nil)
)
