package shard

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"dmknn/internal/core"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// callKind is the engine entry point a recorded call went through.
type callKind uint8

const (
	callUplink callKind = iota
	callGone
	callTick
	callFinalize
)

// call is one engine call of a recorded run, with the tick the engine's
// clock read when it was made.
type call struct {
	at   model.Tick
	kind callKind
	from model.ObjectID
	msg  protocol.Message
}

// recording is every call one simulated run made to its core.Server, the
// deps and config the server was built with, and what the server ended
// with. measured is the index of the first call of the first measured
// tick.
type recording struct {
	cfg      core.Config
	deps     core.ServerDeps
	calls    []call
	measured int
	ticks    int
	installs core.InstallCounts
	queries  int
}

// recorder is the core.Server of the recorded run, noting each call
// before making it.
type recorder struct {
	*core.Server
	now   func() model.Tick
	calls []call
}

func (r *recorder) HandleUplink(from model.ObjectID, msg protocol.Message) {
	r.calls = append(r.calls, call{at: r.now(), kind: callUplink, from: from, msg: msg})
	r.Server.HandleUplink(from, msg)
}

func (r *recorder) HandleClientGone(id model.ObjectID) {
	r.calls = append(r.calls, call{at: r.now(), kind: callGone, from: id})
	r.Server.HandleClientGone(id)
}

func (r *recorder) Tick(now model.Tick) {
	r.calls = append(r.calls, call{at: now, kind: callTick})
	r.Server.Tick(now)
}

func (r *recorder) Finalize(now model.Tick) bool {
	r.calls = append(r.calls, call{at: now, kind: callFinalize})
	return r.Server.Finalize(now)
}

// record runs the many-query workload (manyq-sync's shape: 20 000
// waypoint objects, k = 10, the default protocol, seed 7) with q queries
// and keeps its server's calls.
func record(b *testing.B, q, warmup, ticks int) *recording {
	cfg := workload.WithQueries(workload.Default(), q)
	cfg.Seed = 7
	cfg.Warmup, cfg.Ticks = warmup, ticks
	cfg.DisableAudit = true
	rec := &recording{ticks: ticks}
	var r *recorder
	m, err := core.NewMethod("dknn-recorded", core.DefaultConfig(), 0, func(c core.Config, deps core.ServerDeps, _ *sim.Env) (core.Engine, error) {
		srv, err := core.NewServer(c, deps)
		if err != nil {
			return nil, err
		}
		rec.cfg, rec.deps = c, deps
		r = &recorder{Server: srv, now: deps.Now}
		return r, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(cfg, m); err != nil {
		b.Fatal(err)
	}
	rec.calls, rec.installs, rec.queries = r.calls, r.Installs(), r.QueryCount()
	// Every call carries its tick, so the measured ticks start at the
	// first call past the warmup's ticks.
	first := rec.calls[0].at + model.Tick(warmup)
	rec.measured = slices.IndexFunc(rec.calls, func(c call) bool { return c.at >= first })
	return rec
}

// engineUnderTest is what the replay needs of an engine: the calls, and
// the counts that show it took the recorded run's path.
type engineUnderTest interface {
	core.Engine
	HandleClientGone(model.ObjectID)
	Installs() core.InstallCounts
	QueryCount() int
}

// replay makes every recorded call on a fresh engine, sends discarded,
// with its clock at the recorded tick, and returns the wall time the
// measured ticks' calls took. It fails the benchmark unless the engine
// ends with the recording's install counts and query count.
func (rec *recording) replay(b *testing.B, name string, build func(core.Config, core.ServerDeps) (engineUnderTest, error)) time.Duration {
	var now model.Tick
	deps := rec.deps
	deps.Side = nullSide{}
	deps.Now = func() model.Tick { return now }
	e, err := build(rec.cfg, deps)
	if err != nil {
		b.Fatal(err)
	}
	run := func(calls []call) {
		for _, c := range calls {
			now = c.at
			switch c.kind {
			case callUplink:
				e.HandleUplink(c.from, c.msg)
			case callGone:
				e.HandleClientGone(c.from)
			case callTick:
				e.Tick(c.at)
			case callFinalize:
				e.Finalize(c.at)
			}
		}
	}
	run(rec.calls[:rec.measured])
	start := time.Now()
	run(rec.calls[rec.measured:])
	took := time.Since(start)
	if got := e.Installs(); got != rec.installs {
		b.Fatalf("%s replay installed %+v, the recorded run %+v", name, got, rec.installs)
	}
	if got := e.QueryCount(); got != rec.queries {
		b.Fatalf("%s replay ends with %d queries, the recorded run %d", name, got, rec.queries)
	}
	return took
}

// recordings keeps each query count's recording across the benchmark's
// invocations (-count), so that every round replays the same calls.
var (
	recordings = map[int]*recording{}
	rounds     int
)

// BenchmarkServerShards asks whether the sharded server pays on observed
// time. One many-query run's server calls are recorded once per query
// count, then replayed into core.Server and into the pipeline at one and
// two shards (one worker per shard), the engines alone, in an order that
// rotates every round. It reports each engine's wall time per measured
// tick and GOMAXPROCS, which bounds what two shards can gain. -short
// replays Q = 256 only, over fewer ticks.
func BenchmarkServerShards(b *testing.B) {
	qs, warmup, ticks := []int{256, 1024}, 25, 200
	if testing.Short() {
		qs, warmup, ticks = []int{256}, 10, 20
	}
	engines := []struct {
		name  string
		build func(core.Config, core.ServerDeps) (engineUnderTest, error)
	}{
		{"core", func(c core.Config, d core.ServerDeps) (engineUnderTest, error) { return core.NewServer(c, d) }},
		{"s1", func(c core.Config, d core.ServerDeps) (engineUnderTest, error) {
			return NewWithOptions(1, c, d, Options{Workers: 1})
		}},
		{"s2", func(c core.Config, d core.ServerDeps) (engineUnderTest, error) {
			return NewWithOptions(2, c, d, Options{Workers: 2})
		}},
	}
	for _, q := range qs {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			rec := recordings[q]
			if rec == nil {
				rec = record(b, q, warmup, ticks)
				recordings[q] = rec
			}
			b.ResetTimer()
			took := make([]time.Duration, len(engines))
			for i := 0; i < b.N; i++ {
				for j := range engines {
					k := (j + rounds) % len(engines)
					took[k] += rec.replay(b, engines[k].name, engines[k].build)
				}
				rounds++
			}
			perTick := float64(b.N * rec.ticks)
			for k, e := range engines {
				b.ReportMetric(float64(took[k].Nanoseconds())/perTick, e.name+"-ns/tick")
			}
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "GOMAXPROCS")
		})
	}
}
