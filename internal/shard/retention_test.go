package shard

import (
	"reflect"
	"testing"

	"dmknn/internal/container"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// newRetentionServer returns a two-shard batched server on one worker
// over nullSide, and the clock its shards read.
func newRetentionServer(t *testing.T) (*Server, *model.Tick) {
	t.Helper()
	now := new(model.Tick)
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	s, err := NewWithOptions(2, proto().WithWorldDefault(world), core.ServerDeps{
		Side: nullSide{},
		Now:  func() model.Tick { return *now },
		DT:   1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
	}, Options{Workers: 1})
	if err != nil {
		t.Fatalf("NewWithOptions: %v", err)
	}
	return s, now
}

// zeroFrom fails unless every slot of s from index from up to its
// capacity is the zero value.
func zeroFrom[T any](t *testing.T, name string, s []T, from int) {
	t.Helper()
	for j, v := range s[from:cap(s)] {
		if !reflect.ValueOf(v).IsZero() {
			t.Fatalf("%s: slot %d of len %d cap %d still holds %+v", name, from+j, len(s), cap(s), v)
		}
	}
}

// checkNothingRetained demands that between phases no buffer of the
// pipeline holds or pins an entry: the ingest queues' processed buffers,
// the capture sides and the merge are empty and zero up to their
// capacity, and past its length so is each arrival buffer.
func checkNothingRetained(t *testing.T, s *Server) {
	t.Helper()
	for i := range s.queues {
		iq := &s.queues[i]
		zeroFrom(t, "queue buf", iq.buf, len(iq.buf))
		zeroFrom(t, "queue proc", iq.proc, 0)
		zeroFrom(t, "side sends", s.sides[i].sends, 0)
	}
	zeroFrom(t, "merged", s.merged, 0)
}

// Once Drain, Tick and Finalize have passed their entries on, the
// buffers they went through pin none of them.
func TestBatchedBuffersHoldNothingDelivered(t *testing.T) {
	s, now := newRetentionServer(t)
	*now = 1
	const queries, objects = 6, 20
	for q := 1; q <= queries; q++ {
		s.HandleUplink(model.ObjectID(900+q), protocol.QueryRegister{
			Query: model.QueryID(q), Pos: geo.Pt(150*float64(q), 500), K: 3, At: 1,
		})
	}
	if !s.Drain(1) {
		t.Fatal("Drain processed nothing")
	}
	checkNothingRetained(t, s)
	for q := 1; q <= queries; q++ {
		for j := 0; j < objects; j++ {
			id := model.ObjectID(100*q + j)
			s.HandleUplink(id, protocol.ProbeReply{
				Query: model.QueryID(q), Seq: 1, Object: id,
				Pos: geo.Pt(150*float64(q)+4*float64(j), 502),
			})
		}
	}
	s.HandleClientGone(100 + objects - 1)
	for round := 0; s.Finalize(1); round++ {
		checkNothingRetained(t, s)
		if round == 10 {
			t.Fatal("Finalize did not quiesce")
		}
	}
	*now = 2
	s.Tick(2)
	checkNothingRetained(t, s)
	if cap(s.merged) == 0 || cap(s.queues[0].proc)+cap(s.queues[0].buf) == 0 {
		t.Fatalf("the scenario exists to fill every buffer: merged cap %d, queue caps %d/%d",
			cap(s.merged), cap(s.queues[0].buf), cap(s.queues[0].proc))
	}
}

// Arrivals that race drains across window ends, where an arrival buffer
// is trimmed under its queue's lock, are all processed. Run with -race in
// CI.
func TestBatchedTrimRacesEnqueue(t *testing.T) {
	s, now := newRetentionServer(t)
	*now = 1
	const registers = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for q := 1; q <= registers; q++ {
			s.HandleUplink(model.ObjectID(q), protocol.QueryRegister{
				Query: model.QueryID(q), Pos: geo.Pt(500, 500), K: 2, At: 1,
			})
		}
	}()
	// Every drain has work, so three windows end while the registers land.
	var tick protocol.Message = protocol.ProbeReply{Query: 1 << 30}
	for i := 0; i < 3*container.WindowRounds; i++ {
		s.HandleUplink(7, tick)
		s.Drain(1)
	}
	<-done
	s.Drain(1)
	if got := s.QueryCount(); got != registers {
		t.Fatalf("%d queries registered, want %d", got, registers)
	}
}

// The pipeline's buffers follow their traffic under the capacity rule: a
// burst twenty times the steady round is given back within two windows of
// drains, and steady rounds then allocate nothing.
func TestBatchedBuffersFollowTraffic(t *testing.T) {
	s, now := newRetentionServer(t)
	*now = 1
	// A round enqueues k arrivals per shard, for queries no shard holds, and
	// captures m sends per side — two broadcasts to a downlink — then
	// drains.
	var (
		reply0, reply1 protocol.Message = protocol.ProbeReply{Query: 1000}, protocol.ProbeReply{Query: 1001}
		cancel         protocol.Message = protocol.MonitorCancel{Query: 1}
		answer         protocol.Message = protocol.AnswerUpdate{Query: 1}
		region                          = geo.Circle{Center: geo.Pt(500, 500), R: 50}
	)
	round := func(k, m int) {
		for i := 0; i < k; i++ {
			s.HandleUplink(7, reply0)
			s.HandleUplink(7, reply1)
		}
		for _, side := range s.sides {
			for j := 0; j < m; j++ {
				if j%3 == 2 {
					side.Downlink(7, answer)
				} else {
					side.Broadcast(region, cancel)
				}
			}
		}
		if !s.Drain(1) {
			t.Fatal("Drain processed nothing")
		}
	}
	const k, m, burst = 100, 30, 20
	round(burst*k, burst*m)
	if got := cap(s.queues[0].proc); got < burst*k {
		t.Fatalf("queue capacity %d right after a burst of %d", got, burst*k)
	}
	for i := 0; i < 2*container.WindowRounds; i++ {
		round(k, m)
	}
	checkNothingRetained(t, s)
	// An arrival queue's round is its shard's k arrivals; every send buffer
	// sees at most the merged round of both sides' m sends.
	inBound := func() {
		t.Helper()
		for i := range s.queues {
			iq := &s.queues[i]
			if c := max(cap(iq.buf), cap(iq.proc)); c > container.Slack*k {
				t.Errorf("queue %d retains capacity %d, want at most %d", i, c, container.Slack*k)
			}
			if c := cap(s.sides[i].sends); c > container.Slack*2*m {
				t.Errorf("side %d retains capacity %d, want at most %d", i, c, container.Slack*2*m)
			}
		}
		if c := cap(s.merged); c > container.Slack*2*m {
			t.Errorf("merge retains capacity %d, want at most %d", c, container.Slack*2*m)
		}
	}
	inBound()
	// Once every buffer has regrown to the steady round, steady rounds
	// allocate nothing, across window ends included.
	for i := 0; i < container.WindowRounds; i++ {
		round(k, m)
	}
	if avg := testing.AllocsPerRun(2*container.WindowRounds, func() { round(k, m) }); avg != 0 {
		t.Errorf("steady round allocates %.2f times per run after the trim, want 0", avg)
	}
	inBound()
	checkNothingRetained(t, s)
}
