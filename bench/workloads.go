package main

import (
	"fmt"

	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/workload"
)

// engineKind selects how the server side of a workload is assembled.
type engineKind int

const (
	engineSync    engineKind = iota // one core.Server on simnet
	engineBatched                   // shard.Server, batched pipeline, on simnet
	engineFed                       // cluster.Cluster over MemLink, on simnet
	engineTCP                       // one core.Server behind nettcp sockets
)

// spec is one named workload: the inputs, the engine, and the tick
// counts. Everything an episode does is a function of (spec, seed).
type spec struct {
	name string
	why  string

	engine   engineKind
	world    geo.Rect
	cols     int
	rows     int
	objects  int
	queries  int
	k        int
	maxSpeed float64 // objects and queries move in [maxSpeed/4, maxSpeed]
	mobility string
	proto    core.Config
	shards   int // engineBatched
	workers  int // engineBatched
	nodes    int // engineFed
	// queryStrips, when positive, confines the focal points to that many
	// vertical strips (see newWorld).
	queryStrips int
	// hotspots, when positive, overrides the hotspot model's cluster count.
	hotspots int

	// warmup ticks run before the first measured tick (probe/install
	// bootstrap); they are part of setup_s. ticks is how many ticks a run
	// of refSeconds measures, sized so that it takes about that long on
	// the 2-vCPU host this was written on (see measured).
	warmup int
	ticks  int
}

// refSeconds is the run length the workloads' tick counts are sized for.
const refSeconds = 20

// measured is how many ticks a run of the given length measures. The run
// length sets the work, not a deadline: every run of a seed times exactly
// the same ticks, so a slow minute on the host, or a change that makes
// ticks cheaper, does not move which part of the trajectory is timed.
func (s spec) measured(seconds float64) int {
	return max(int(float64(s.ticks)*seconds/refSeconds), 1)
}

// specs returns the five workloads at full scale. Tick counts are the
// issue's, shrunk (never the populations) so that every run the driver
// makes fits its cap; each keeps >= 200 measured ticks.
func specs() []spec {
	d := workload.Default()
	w, cols, rows := d.World, d.Cols, d.Rows
	q := workload.Quick()
	tcpProto := core.DefaultConfig()
	tcpProto.HorizonTicks = 8
	tcpProto.MinProbeRadius = 100
	return []spec{
		{
			name:   "steady-100k",
			why:    "paper's headline regime (N=100k, Q=16): agents' self-monitoring and simnet fan-out dominate, the server is ~4% of the tick",
			engine: engineSync, world: w, cols: cols, rows: rows,
			objects: 100000, queries: 16, k: 10, maxSpeed: 20,
			mobility: workload.ModelWaypoint, proto: core.DefaultConfig(),
			warmup: 25, ticks: 700,
		},
		{
			name:   "manyq-sync",
			why:    "many-query regime (N=20k, Q=256) on the sync core.Server: core ingest is ~30% of the tick, where a many-query engine must show",
			engine: engineSync, world: w, cols: cols, rows: rows,
			objects: 20000, queries: 256, k: 10, maxSpeed: 20,
			mobility: workload.ModelWaypoint, proto: core.DefaultConfig(),
			warmup: 25, ticks: 330,
		},
		{
			name:   "manyq-batched",
			why:    "identical inputs to manyq-sync on the 2-shard batched pipeline: same core layer used differently, wire counts must match exactly",
			engine: engineBatched, world: w, cols: cols, rows: rows,
			objects: 20000, queries: 256, k: 10, maxSpeed: 20,
			mobility: workload.ModelWaypoint, proto: core.DefaultConfig(),
			shards: 2, workers: 2,
			warmup: 25, ticks: 330,
		},
		{
			name:   "fed4-hotspot",
			why:    "4-strip federation over MemLink under hotspot skew (N=20k, Q=64): object/query handoffs and link traffic, balancer off",
			engine: engineFed, world: w, cols: cols, rows: rows,
			objects: 20000, queries: 64, k: 10, maxSpeed: 20,
			mobility: workload.ModelHotspot, proto: core.DefaultConfig(),
			nodes: 4, queryStrips: 4, hotspots: 16,
			warmup: 25, ticks: 1400,
		},
		{
			name:   "tcp-300",
			why:    "the only workload that encodes, frames and writes to 308 loopback sockets (N=300, Q=8): nettcp write path and fan-out dominate",
			engine: engineTCP, world: q.World, cols: q.Cols, rows: q.Rows,
			objects: 300, queries: 8, k: 5, maxSpeed: q.MaxObjectSpeed,
			mobility: workload.ModelWaypoint, proto: tcpProto,
			warmup: 100, ticks: 4000,
		},
	}
}

// tiny shrinks a workload to test size (N <= 600, <= 40 ticks) keeping
// its engine, mobility and protocol settings.
func (s spec) tiny() spec {
	q := workload.Quick()
	s.world, s.cols, s.rows = q.World, q.Cols, q.Rows
	s.maxSpeed = q.MaxObjectSpeed
	s.proto.MinProbeRadius = 100
	if s.objects > 600 {
		s.objects = 600
	}
	if s.queries > 12 {
		s.queries = 12
	}
	if s.k > 5 {
		s.k = 5
	}
	s.warmup, s.ticks = 10, 30
	return s
}

func findSpec(name string, tiny bool) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			if tiny {
				s = s.tiny()
			}
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}
