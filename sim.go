package dmknn

import (
	"fmt"

	"dmknn/internal/baseline"
	"dmknn/internal/core"
	"dmknn/internal/metrics"
	"dmknn/internal/sim"
	"dmknn/internal/workload"
)

// Method names accepted by SimConfig.Method.
const (
	MethodDKNN = "dknn" // the distributed protocol (this paper)
	MethodCP   = "cp"   // centralized periodic baseline
	MethodCI   = "ci"   // centralized incremental (threshold) baseline
	MethodCB   = "cb"   // centralized predictive dead-reckoning baseline
)

// Mobility model names accepted by SimConfig.Mobility.
const (
	MobilityWaypoint  = workload.ModelWaypoint
	MobilityDirection = workload.ModelDirection
	MobilityManhattan = workload.ModelManhattan
	MobilityHotspot   = workload.ModelHotspot
)

// SimConfig describes one simulation run. Zero fields take the values of
// the headline evaluation workload (10 km × 10 km world, 20 000 objects,
// 64 queries, k = 10; see DESIGN.md §5).
type SimConfig struct {
	// Method selects the query-processing strategy: MethodDKNN,
	// MethodCP, or MethodCI.
	Method string
	// CITau is the report threshold in meters for MethodCI and
	// MethodCB (default 50).
	CITau float64
	// Protocol tunes MethodDKNN.
	Protocol Protocol

	World      Rect
	GridCols   int
	GridRows   int
	NumObjects int
	NumQueries int
	K          int
	// QueryRange, when positive, makes every query a fixed-radius range
	// monitor (all objects within QueryRange meters) instead of a kNN
	// query; K is then ignored.
	QueryRange float64
	// TickSeconds is the evaluation interval Δt (default 1).
	TickSeconds float64
	// Speeds in m/s; objects and query focal points move in
	// [max/4, max] under the chosen mobility model.
	MaxObjectSpeed float64
	MaxQuerySpeed  float64
	// Mobility selects the movement model for both populations
	// (default MobilityWaypoint).
	Mobility string
	// Ticks to measure after Warmup ticks.
	Ticks  int
	Warmup int
	Seed   int64
	// Network conditions.
	LatencyTicks  int
	UplinkLoss    float64
	DownlinkLoss  float64
	BroadcastLoss float64
	// SkipAudit disables ground-truth checking (faster; Report's
	// accuracy fields read as exact).
	SkipAudit bool
}

// Report is the measured outcome of a simulation run.
type Report struct {
	Method string
	// Mean wireless messages per evaluation interval, by direction.
	UplinkPerTick    float64
	DownlinkPerTick  float64
	BroadcastPerTick float64
	// UplinkBytes is the total uplink payload volume of the measured
	// phase.
	UplinkBytes uint64
	// Server processing time per tick, microseconds.
	ServerMicrosPerTick float64
	// Answer quality against brute-force ground truth, audited at every
	// (query, tick).
	Exactness  float64
	MeanRecall float64
	// MessageBreakdown is a per-kind, per-direction traffic table.
	MessageBreakdown string
}

func (c SimConfig) withDefaults() SimConfig {
	def := workload.Default()
	if c.Method == "" {
		c.Method = MethodDKNN
	}
	if c.CITau == 0 {
		c.CITau = 50
	}
	if c.World == (Rect{}) {
		b := def.World
		c.World = Rect{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
	}
	if c.GridCols == 0 {
		c.GridCols = def.Cols
	}
	if c.GridRows == 0 {
		c.GridRows = def.Rows
	}
	if c.NumObjects == 0 {
		c.NumObjects = def.NumObjects
	}
	if c.NumQueries == 0 {
		c.NumQueries = def.NumQueries
	}
	if c.K == 0 && c.QueryRange == 0 {
		c.K = def.K
	}
	if c.TickSeconds == 0 {
		c.TickSeconds = def.DT
	}
	if c.MaxObjectSpeed == 0 {
		c.MaxObjectSpeed = def.MaxObjectSpeed
	}
	if c.MaxQuerySpeed == 0 {
		c.MaxQuerySpeed = def.MaxQuerySpeed
	}
	if c.Mobility == "" {
		c.Mobility = MobilityWaypoint
	}
	if c.Ticks == 0 {
		c.Ticks = def.Ticks
	}
	if c.Warmup == 0 {
		c.Warmup = def.Warmup
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (p Protocol) internal() core.Config {
	cfg := core.DefaultConfig()
	if p.HorizonTicks != 0 {
		cfg.HorizonTicks = p.HorizonTicks
	}
	if p.ThetaInside != 0 {
		cfg.ThetaInside = p.ThetaInside
	}
	if p.QueryDeviation != 0 {
		cfg.QueryDeviation = p.QueryDeviation
	}
	if p.AnswerSlack != 0 {
		cfg.AnswerSlack = p.AnswerSlack
	}
	if p.ResyncTicks != 0 {
		cfg.ResyncTicks = p.ResyncTicks
	}
	if p.MinProbeRadius != 0 {
		cfg.MinProbeRadius = p.MinProbeRadius
	}
	cfg.DeltaAnswers = p.DeltaAnswers
	return cfg
}

func (c SimConfig) internal() (sim.Config, error) {
	world := c.World.internal()
	objModel, err := workload.ModelFactory(c.Mobility, world, c.MaxObjectSpeed/4, c.MaxObjectSpeed)
	if err != nil {
		return sim.Config{}, err
	}
	lo := c.MaxQuerySpeed / 4
	qryModel, err := workload.ModelFactory(c.Mobility, world, lo, c.MaxQuerySpeed)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		World:          world,
		Cols:           c.GridCols,
		Rows:           c.GridRows,
		NumObjects:     c.NumObjects,
		NumQueries:     c.NumQueries,
		K:              c.K,
		QueryRange:     c.QueryRange,
		DT:             c.TickSeconds,
		MaxObjectSpeed: c.MaxObjectSpeed,
		MaxQuerySpeed:  c.MaxQuerySpeed,
		Ticks:          c.Ticks,
		Warmup:         c.Warmup,
		Seed:           c.Seed,
		LatencyTicks:   c.LatencyTicks,
		UplinkLoss:     c.UplinkLoss,
		DownlinkLoss:   c.DownlinkLoss,
		BroadcastLoss:  c.BroadcastLoss,
		ObjectModel:    objModel,
		QueryModel:     qryModel,
		DisableAudit:   c.SkipAudit,
	}, nil
}

func (c SimConfig) method() (sim.Method, error) {
	switch c.Method {
	case MethodDKNN:
		return core.New(c.Protocol.internal())
	case MethodCP:
		return baseline.NewCP(), nil
	case MethodCI:
		return baseline.NewCI(c.CITau)
	case MethodCB:
		return baseline.NewCB(c.CITau)
	default:
		return nil, fmt.Errorf("dmknn: unknown method %q", c.Method)
	}
}

// Run executes one simulation and reports the measured traffic and
// answer quality.
func Run(cfg SimConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	simCfg, err := cfg.internal()
	if err != nil {
		return nil, err
	}
	method, err := cfg.method()
	if err != nil {
		return nil, err
	}
	res, err := sim.Run(simCfg, method)
	if err != nil {
		return nil, err
	}
	return &Report{
		Method:              res.Method,
		UplinkPerTick:       res.Uplink.Mean(),
		DownlinkPerTick:     res.Downlink.Mean(),
		BroadcastPerTick:    res.Broadcast.Mean(),
		UplinkBytes:         res.Traffic.SentBytes(metrics.Uplink),
		ServerMicrosPerTick: res.ServerUS.Mean(),
		Exactness:           res.Audit.Exactness(),
		MeanRecall:          res.Audit.MeanRecall(),
		MessageBreakdown:    res.Traffic.BreakdownTable(),
	}, nil
}
