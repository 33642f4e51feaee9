package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// BenchmarkPopulationTick measures the simulated device population the way
// a many-query run drives it: 20 000 agents spread over a 10 km world and
// 256 queries, whose installs every agent in range heard in broadcast
// order — about ten rows per agent, a quarter of agents inside some answer
// circle. One iteration is one tick in which every device moves and then
// evaluates its monitors. It reports the time of one agent's visit
// (ns/visit), the heap the population holds per agent (B/agent) and the
// rows it holds per agent after the last tick (rows/agent).
func BenchmarkPopulationTick(b *testing.B) {
	const (
		world   = 10000.0
		agents  = 20000
		queries = 256
		// 256 regions of this radius cover a point of the world about ten
		// times, their answer circles about 0.27 times.
		radius = 1115.0
		answer = 185.0
		speed  = 10.0 // m per tick
	)
	rng := rand.New(rand.NewSource(1))
	home := make([]geo.Point, agents)
	vel := make([]geo.Vector, agents)
	pos := make([]geo.Point, agents)
	for i := range home {
		home[i] = geo.Pt(rng.Float64()*world, rng.Float64()*world)
		angle := rng.Float64() * 2 * math.Pi
		vel[i] = geo.Vector{X: speed * math.Cos(angle), Y: speed * math.Sin(angle)}
		pos[i] = home[i]
	}
	now := model.Tick(1)
	pop := make([]*ObjectAgent, agents)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range pop {
		a, err := NewObjectAgent(benchCfg(), AgentDeps{
			ID:   model.ObjectID(i),
			Side: nullClientSide{},
			Now:  func() model.Tick { return now },
			Pos:  func() geo.Point { return pos[i] },
			DT:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		pop[i] = a
	}
	for q := 1; q <= queries; q++ {
		c := geo.Pt(rng.Float64()*world, rng.Float64()*world)
		var msg protocol.Message = protocol.MonitorInstall{
			Query: model.QueryID(q), Epoch: 1, QueryPos: c, AnswerRadius: answer, Radius: radius,
		}
		for i, a := range pop {
			if math.Abs(home[i].X-c.X) <= radius && math.Abs(home[i].Y-c.Y) <= radius {
				a.HandleServerMessage(msg)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / agents

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		now++
		// Each device walks out along its heading and back, 20 ticks a
		// round trip, so the table shape holds however long the run.
		step := float64(min(n%20, 20-n%20))
		for i, a := range pop {
			pos[i] = home[i].Add(vel[i].Scale(step))
			a.Tick(now)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/agents, "ns/visit")
	b.StopTimer()
	rows := 0
	for _, a := range pop {
		rows += a.MonitorCount()
	}
	b.ReportMetric(heap, "B/agent")
	b.ReportMetric(float64(rows)/agents, "rows/agent")
}
