package shard

import (
	"fmt"
	"sync"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

func newBatchedForTest(t *testing.T, n int) *Server {
	t.Helper()
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	srv, err := NewWithOptions(n, proto().WithWorldDefault(world), core.ServerDeps{
		Side: nullSide{},
		Now:  func() model.Tick { return 1 },
		DT:   1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
	}, Options{})
	if err != nil {
		t.Fatalf("NewWithOptions: %v", err)
	}
	return srv
}

// A disconnect enqueued between a registration and the drain must purge
// the query: the marker holds its place in each shard's arrival order.
func TestBatchedClientGoneOrderedWithinDrain(t *testing.T) {
	srv := newBatchedForTest(t, 3)
	for q := 1; q <= 3; q++ {
		srv.HandleUplink(model.ObjectID(900+q), protocol.QueryRegister{
			Query: model.QueryID(q), Pos: geo.Pt(100*float64(q), 100), K: 2, At: 1,
		})
	}
	// Disconnect query 2's focal client before anything is processed,
	// then register a query after the disconnect: arrival order says the
	// register of query 4 survives, query 2 does not.
	srv.HandleClientGone(902)
	srv.HandleUplink(904, protocol.QueryRegister{
		Query: 4, Pos: geo.Pt(400, 100), K: 2, At: 1,
	})
	if got := srv.QueryCount(); got != 0 {
		t.Fatalf("before drain: %d queries processed, want 0 (ingest is deferred)", got)
	}
	if !srv.Drain(1) {
		t.Fatal("Drain processed nothing")
	}
	if got := srv.QueryCount(); got != 3 {
		t.Fatalf("after drain: %d queries, want 3 (queries 1, 3, 4)", got)
	}
	if srv.Drain(1) {
		t.Fatal("second Drain should be empty")
	}
}

// A disconnect racing a concurrent drain must never be lost: whichever
// buffer it lands in (the one being swapped out or the fresh one), a
// subsequent drain applies it. Run with -race in CI.
func TestBatchedClientGoneDuringDrainNotLost(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		srv := newBatchedForTest(t, 4)
		for q := 1; q <= 8; q++ {
			srv.HandleUplink(model.ObjectID(900+q), protocol.QueryRegister{
				Query: model.QueryID(q), Pos: geo.Pt(100*float64(q), 100), K: 2, At: 1,
			})
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.HandleClientGone(903) // query 3's focal client
		}()
		srv.Drain(1)
		wg.Wait()
		srv.Drain(1) // applies the marker if it missed the first swap
		if got := srv.QueryCount(); got != 7 {
			t.Fatalf("trial %d: %d queries, want 7 (query 3 purged)", trial, got)
		}
	}
}

// The batched pipeline must deliver the same exact answers as any other
// DKNN variant on a clean network, also at the shard counts
// TestShardedExactness does not run: one shard, and an odd count.
func TestBatchedExactness(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := workload.Quick()
		cfg.Ticks = 60
		m, err := NewBatchedMethod(shards, proto())
		if err != nil {
			t.Fatalf("NewBatchedMethod(%d): %v", shards, err)
		}
		res, err := sim.Run(cfg, m)
		if err != nil {
			t.Fatalf("shards=%d: run: %v", shards, err)
		}
		if res.Audit.Exactness() < 1.0 {
			t.Errorf("shards=%d: batched exactness %.4f, want 1.0", shards, res.Audit.Exactness())
		}
	}
}

// BenchmarkBatchedPipeline exercises the full drain/merge/flush path end
// to end on a small workload; CI runs it with -benchtime=1x under -race
// so the queue and worker-pool code is raced on every push.
func BenchmarkBatchedPipeline(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg := workload.Quick()
			cfg.Ticks = 20
			cfg.Warmup = 5
			cfg.DisableAudit = true
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewBatchedMethod(shards, proto())
				if err != nil {
					b.Fatalf("NewBatchedMethod: %v", err)
				}
				if _, err := sim.Run(cfg, m); err != nil {
					b.Fatalf("run: %v", err)
				}
			}
		})
	}
}
