package shard

import (
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

func proto() core.Config {
	cfg := core.DefaultConfig()
	cfg.HorizonTicks = 8
	cfg.MinProbeRadius = 100
	return cfg
}

func TestNewValidation(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	if _, err := New(0, proto().WithWorldDefault(world), core.ServerDeps{}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewMethod(0, proto()); err == nil {
		t.Error("NewMethod accepted zero shards")
	}
	if _, err := NewMethod(4, core.Config{}); err == nil {
		t.Error("NewMethod accepted invalid protocol config")
	}
	s, err := New(4, proto().WithWorldDefault(world), core.ServerDeps{
		Now: func() model.Tick { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Errorf("NumShards = %d", s.NumShards())
	}
}

// The sharded server must be exact, just like the single server, and
// distribute queries across shards.
func TestShardedExactness(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60
	m, err := NewMethod(4, proto())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("sharded exactness = %v (recall %v)", ex, res.Audit.MeanRecall())
	}
	srv := m.Engine().(*Server)
	if got := srv.QueryCount(); got != cfg.NumQueries {
		t.Errorf("QueryCount = %d, want %d", got, cfg.NumQueries)
	}
	// With 8 queries over 4 shards, at least two shards must own queries.
	owners := 0
	for _, sh := range srv.shards {
		if sh.QueryCount() > 0 {
			owners++
		}
	}
	if owners < 2 {
		t.Errorf("queries concentrated on %d shard(s)", owners)
	}
}

// Sharding is an interior change: the wireless traffic must be identical
// to the single-server method under the same trajectories.
func TestShardingDoesNotChangeTraffic(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 40

	single, err := core.New(proto())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.Run(cfg, single)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewMethod(3, proto())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(cfg, sharded)
	if err != nil {
		t.Fatal(err)
	}
	// Sends are deterministic per query state machine; shards only change
	// *interleaving*, which the per-direction totals are insensitive to.
	for _, d := range metrics.Directions() {
		if r1.Traffic.Sent(d) != r2.Traffic.Sent(d) {
			t.Errorf("%v traffic differs: %d vs %d",
				d, r1.Traffic.Sent(d), r2.Traffic.Sent(d))
		}
	}
}

func TestClientGoneFansToAllShards(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	now := model.Tick(1)
	side := &lockedSide{side: nullSide{}}
	s, err := New(3, proto().WithWorldDefault(world), core.ServerDeps{
		Side: side,
		Now:  func() model.Tick { return now },
		DT:   1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Register three queries — they land on three different shards for
	// ids 1,2,3 with modulo routing.
	for q := model.QueryID(1); q <= 3; q++ {
		s.HandleUplink(model.ObjectID(900+q), protocol.QueryRegister{
			Query: q, K: 1, Pos: geo.Pt(500, 500), At: 1,
		})
	}
	if s.QueryCount() != 3 {
		t.Fatalf("QueryCount = %d", s.QueryCount())
	}
	// Focal client of query 2 vanishes: only that query dies.
	s.HandleClientGone(902)
	if s.QueryCount() != 2 {
		t.Fatalf("QueryCount after gone = %d, want 2", s.QueryCount())
	}
	if len(s.Answer(2).Neighbors) != 0 {
		t.Error("dead query still answers")
	}
	// Unknown-kind uplink is ignored.
	s.HandleUplink(1, protocol.LocationReport{Object: 1})
}

type nullSide struct{}

func (nullSide) Downlink(model.ObjectID, protocol.Message) {}
func (nullSide) Broadcast(geo.Circle, protocol.Message)    {}
