package shard

import (
	"testing"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/geo"
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
	deps := core.ServerDeps{Side: nullSide{}, Now: func() model.Tick { return 0 }}
	if _, err := NewWithOptions(0, proto().WithWorldDefault(world), deps, Options{}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewWithOptions(4, proto().WithWorldDefault(world), core.ServerDeps{}, Options{}); err == nil {
		t.Error("nil server side accepted")
	}
	if _, err := NewBatchedMethod(0, proto()); err == nil {
		t.Error("NewBatchedMethod accepted zero shards")
	}
	if _, err := NewBatchedMethod(4, core.Config{}); err == nil {
		t.Error("NewBatchedMethod accepted invalid protocol config")
	}
	if _, err := NewWithOptions(4, proto().WithWorldDefault(world), deps, Options{}); err != nil {
		t.Fatal(err)
	}
}

// The deprecated Options.Batched selects nothing: with or without it the
// server defers ingest to Drain.
func TestEveryServerDefersIngest(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	for _, opts := range []Options{{}, {Batched: true}} {
		s, err := NewWithOptions(2, proto().WithWorldDefault(world), core.ServerDeps{
			Side: nullSide{},
			Now:  func() model.Tick { return 1 },
			DT:   1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.HandleUplink(901, protocol.QueryRegister{Query: 1, K: 1, Pos: geo.Pt(500, 500), At: 1})
		if got := s.QueryCount(); got != 0 {
			t.Errorf("%+v: %d queries before Drain, want 0", opts, got)
		}
		if !s.Drain(1) {
			t.Errorf("%+v: Drain processed nothing", opts)
		}
		if got := s.QueryCount(); got != 1 {
			t.Errorf("%+v: %d queries after Drain, want 1", opts, got)
		}
	}
}

// The sharded server must be exact, just like the single server, and
// distribute queries across shards.
func TestShardedExactness(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 60
	m, err := NewBatchedMethod(4, proto())
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
	// The shards install what the single server would, so their summed
	// install counts are its counts.
	single, err := core.New(proto())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(cfg, single); err != nil {
		t.Fatal(err)
	}
	want := single.Engine().(*core.Server).Installs()
	if got := srv.Installs(); got != want || got.Bootstrap != uint64(cfg.NumQueries) {
		t.Errorf("sharded install counts %+v, single server %+v (%d queries)", got, want, cfg.NumQueries)
	}
}

// BusyTime is the wall time the server's calls took. With one worker the
// shards run one after another inside those calls, so it is at least the
// sum of their own busy times; the slowest shard alone falls short of it.
func TestBusyTimeIsObserved(t *testing.T) {
	cfg := workload.Quick()
	cfg.Ticks = 30
	cfg.NumQueries = 16
	m, err := core.NewMethod("dknn-sharded", proto(), 0, func(c core.Config, deps core.ServerDeps, _ *sim.Env) (core.Engine, error) {
		return NewWithOptions(4, c, deps, Options{Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(cfg, m); err != nil {
		t.Fatal(err)
	}
	srv := m.Engine().(*Server)
	var sum time.Duration
	for _, sh := range srv.shards {
		sum += sh.BusyTime()
	}
	if got := srv.BusyTime(); got < sum || sum == 0 {
		t.Errorf("BusyTime %v, shards' busy times sum to %v", got, sum)
	}
}

func TestClientGoneFansToAllShards(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	now := model.Tick(1)
	s, err := NewWithOptions(3, proto().WithWorldDefault(world), core.ServerDeps{
		Side: nullSide{},
		Now:  func() model.Tick { return now },
		DT:   1, MaxObjectSpeed: 10, MaxQuerySpeed: 10,
	}, Options{})
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
	s.Drain(now)
	if s.QueryCount() != 3 {
		t.Fatalf("QueryCount = %d", s.QueryCount())
	}
	// Focal client of query 2 vanishes: only that query dies.
	s.HandleClientGone(902)
	s.Drain(now)
	if s.QueryCount() != 2 {
		t.Fatalf("QueryCount after gone = %d, want 2", s.QueryCount())
	}
	if len(s.Answer(2).Neighbors) != 0 {
		t.Error("dead query still answers")
	}
	// Unknown-kind uplink is ignored.
	s.HandleUplink(1, protocol.LocationReport{Object: 1})
	if s.Drain(now) {
		t.Error("an uplink without a query id was queued")
	}
}

type nullSide struct{}

func (nullSide) Downlink(model.ObjectID, protocol.Message) {}
func (nullSide) Broadcast(geo.Circle, protocol.Message)    {}
