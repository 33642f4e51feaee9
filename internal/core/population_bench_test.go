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
// the repository's benchmark drives it, in the two shapes its runs leave
// the agents' tables in:
//
//   - manyq: manyq-sync's 20 000 agents over a 10 km world and 256
//     queries; there about 1.1 rows per agent are held — two agents in
//     three hold one — and a quarter of a row per agent is inside an
//     answer circle, in regions of about 365 m around answer circles of
//     about 170 m;
//   - idle: steady-100k's 100 000 agents and 16 queries, whose regions of
//     about 170 m around answer circles of about 77 m leave 1.6 % of the
//     agents holding a row, so nearly every visit finds nothing to do.
//
// Every agent in range heard the installs in broadcast order. One
// iteration is one tick in which every device moves and then evaluates its
// monitors. It reports the time of one agent's visit (ns/visit), the heap
// the population holds per agent (B/agent) and the rows it holds per agent
// after the last tick (rows/agent), which lands on the counts above.
func BenchmarkPopulationTick(b *testing.B) {
	const (
		world = 10000.0
		speed = 10.0 // m per tick
	)
	for _, c := range []struct {
		name            string
		agents, queries int
		// The radii are larger than the runs' because no reinstall follows
		// the walk below: its first round trip drops the rows of the agents
		// that walk out of their region, and these radii leave the counted
		// rows per agent after it.
		radius, answer float64
	}{
		{"manyq", 20000, 256, 410, 180},
		{"idle", 100000, 16, 215, 80},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			home := make([]geo.Point, c.agents)
			vel := make([]geo.Vector, c.agents)
			pos := make([]geo.Point, c.agents)
			for i := range home {
				home[i] = geo.Pt(rng.Float64()*world, rng.Float64()*world)
				angle := rng.Float64() * 2 * math.Pi
				vel[i] = geo.Vector{X: speed * math.Cos(angle), Y: speed * math.Sin(angle)}
				pos[i] = home[i]
			}
			now := model.Tick(1)
			pop := make([]*ObjectAgent, c.agents)

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
			for q := 1; q <= c.queries; q++ {
				center := geo.Pt(rng.Float64()*world, rng.Float64()*world)
				var msg protocol.Message = protocol.MonitorInstall{
					Query: model.QueryID(q), Epoch: 1, QueryPos: center, AnswerRadius: c.answer, Radius: c.radius,
				}
				for i, a := range pop {
					if math.Abs(home[i].X-center.X) <= c.radius && math.Abs(home[i].Y-center.Y) <= c.radius {
						a.HandleServerMessage(msg)
					}
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(c.agents)

			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				now++
				// Each device walks out along its heading and back, 20 ticks
				// a round trip, so the table shape holds however long the run
				// once the first round trip has dropped the rows of the
				// agents that walked out of their region.
				step := float64(min(n%20, 20-n%20))
				for i, a := range pop {
					pos[i] = home[i].Add(vel[i].Scale(step))
					a.Tick(now)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.agents), "ns/visit")
			b.StopTimer()
			rows := 0
			for _, a := range pop {
				rows += a.MonitorCount()
			}
			b.ReportMetric(heap, "B/agent")
			b.ReportMetric(float64(rows)/float64(c.agents), "rows/agent")
		})
	}
}
