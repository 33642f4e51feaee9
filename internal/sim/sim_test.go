package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/mobility"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

func testConfig() Config {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	factory := func(seed int64) (mobility.Model, error) {
		return mobility.NewRandomWaypoint(mobility.Config{
			World: world, MinSpeed: 2, MaxSpeed: 10, Seed: seed,
		}, 0)
	}
	return Config{
		World:          world,
		Cols:           8,
		Rows:           8,
		NumObjects:     50,
		NumQueries:     2,
		K:              3,
		DT:             1,
		MaxObjectSpeed: 10,
		MaxQuerySpeed:  10,
		Ticks:          20,
		Warmup:         2,
		Seed:           7,
		ObjectModel:    factory,
		QueryModel:     factory,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.World = geo.NewRect(geo.Pt(0, 0), geo.Pt(0, 1)) },
		func(c *Config) { c.Cols = 0 },
		func(c *Config) { c.Rows = -1 },
		func(c *Config) { c.NumObjects = 0 },
		func(c *Config) { c.NumQueries = -1 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.DT = 0 },
		func(c *Config) { c.Ticks = 0 },
		func(c *Config) { c.Warmup = -1 },
		func(c *Config) { c.ObjectModel = nil },
		func(c *Config) { c.QueryModel = nil },
	}
	for i, mut := range mutations {
		cfg := testConfig()
		mut(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewEngine(cfg, &nullMethod{}); err == nil {
			t.Errorf("mutation %d: NewEngine accepted bad config", i)
		}
	}
}

// nullMethod does nothing: the engine must still run motion, truth
// maintenance, and auditing around it.
type nullMethod struct{ env *Env }

func (n *nullMethod) Name() string              { return "null" }
func (n *nullMethod) Setup(env *Env) error      { n.env = env; return nil }
func (n *nullMethod) ClientTick(model.Tick)     {}
func (n *nullMethod) ServerTick(model.Tick)     {}
func (n *nullMethod) Finalize(model.Tick) bool  { return false }
func (n *nullMethod) ServerTime() time.Duration { return 0 }
func (n *nullMethod) Answer(q model.QueryID) model.Answer {
	return model.Answer{Query: q}
}

func TestEngineRunsNullMethod(t *testing.T) {
	cfg := testConfig()
	res, err := Run(cfg, &nullMethod{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "null" {
		t.Errorf("method name %q", res.Method)
	}
	if res.Uplink.Len() != cfg.Ticks {
		t.Errorf("series length %d, want %d", res.Uplink.Len(), cfg.Ticks)
	}
	// A method that answers nothing has zero recall (k truth members
	// exist) and zero traffic.
	if res.Audit.MeanRecall() != 0 {
		t.Errorf("null method recall = %v", res.Audit.MeanRecall())
	}
	if res.UplinkPerTick() != 0 || res.DownlinkPerTick() != 0 {
		t.Error("null method produced traffic")
	}
	if res.Audit.Evaluations() != cfg.Ticks*cfg.NumQueries {
		t.Errorf("evaluations = %d, want %d", res.Audit.Evaluations(), cfg.Ticks*cfg.NumQueries)
	}
}

// setupErrMethod fails setup; the engine must propagate the error.
type setupErrMethod struct{ nullMethod }

var errSetup = errors.New("boom")

func (s *setupErrMethod) Setup(*Env) error { return s.err() }
func (s *setupErrMethod) err() error       { return errSetup }

func TestSetupErrorPropagates(t *testing.T) {
	if _, err := NewEngine(testConfig(), &setupErrMethod{}); !errors.Is(err, errSetup) {
		t.Fatalf("err = %v, want wrapped errSetup", err)
	}
}

// stuckMethod never finishes finalizing; the engine must abort with an
// error instead of spinning.
type stuckMethod struct{ nullMethod }

func (s *stuckMethod) Finalize(model.Tick) bool { return true }

func TestFinalizeLoopGuard(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, &stuckMethod{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err == nil {
		t.Fatal("expected quiescence error")
	}
}

func TestEnvAccessors(t *testing.T) {
	cfg := testConfig()
	m := &nullMethod{}
	eng, err := NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	if len(env.Objects) != cfg.NumObjects || len(env.Queries) != cfg.NumQueries {
		t.Fatal("env population wrong")
	}
	if got := env.ObjectByID(1); got.ID != 1 {
		t.Fatal("ObjectByID broken")
	}
	// Query focal addresses follow the object id space.
	if env.Queries[0].State.ID != model.ObjectID(cfg.NumObjects+1) {
		t.Errorf("query 0 address = %d", env.Queries[0].State.ID)
	}
	if env.Queries[1].State.ID != model.ObjectID(cfg.NumObjects+2) {
		t.Errorf("query 1 address = %d", env.Queries[1].State.ID)
	}
	// Query ids are 1-based and ks match.
	if env.Queries[0].Spec.ID != 1 || env.Queries[0].Spec.K != cfg.K {
		t.Errorf("query spec = %+v", env.Queries[0].Spec)
	}
}

func TestStepAdvancesMotionAndClock(t *testing.T) {
	cfg := testConfig()
	eng, err := NewEngine(cfg, &nullMethod{})
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	before := make([]geo.Point, len(env.Objects))
	for i := range env.Objects {
		before[i] = env.Objects[i].Pos
	}
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 1 {
		t.Errorf("Now = %d", eng.Now())
	}
	moved := 0
	for i := range env.Objects {
		if env.Objects[i].Pos != before[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no object moved")
	}
	// The network clock follows the engine.
	if env.Net.Now() != 1 {
		t.Errorf("network now = %d", env.Net.Now())
	}
}

// The broadcast position oracle must resolve data objects and query focal
// clients, and nothing else.
func TestPositionOracleCoverage(t *testing.T) {
	cfg := testConfig()
	m := &nullMethod{}
	eng, err := NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	// Install a client handler so broadcast delivery can be observed.
	heard := 0
	for id := model.ObjectID(1); id <= model.ObjectID(cfg.NumObjects+cfg.NumQueries); id++ {
		env.Net.AttachClient(id, clientFunc(func(protocol.Message) { heard++ }))
	}
	env.Net.SetNow(1)
	env.Net.ServerSide().Broadcast(geo.Circle{Center: env.World.Center(), R: 1e6},
		protocol.MonitorCancel{Query: 1})
	env.Net.Flush()
	if heard != cfg.NumObjects+cfg.NumQueries {
		t.Errorf("whole-world broadcast heard by %d, want %d",
			heard, cfg.NumObjects+cfg.NumQueries)
	}
}

type clientFunc func(protocol.Message)

func (f clientFunc) HandleServerMessage(m protocol.Message) { f(m) }

func TestDisableAudit(t *testing.T) {
	cfg := testConfig()
	cfg.DisableAudit = true
	res, err := Run(cfg, &nullMethod{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.Evaluations() != 0 {
		t.Error("audit ran despite DisableAudit")
	}
}

// answerMethod returns a fixed answer for auditing tests.
type answerMethod struct {
	nullMethod
	answers map[model.QueryID]model.Answer
}

func (m *answerMethod) Answer(q model.QueryID) model.Answer { return m.answers[q] }

// The auditor accepts any valid kNN set under distance ties: swapping a
// member for an equidistant non-member is exact; swapping for a farther
// one is not.
func TestAuditTieEquivalence(t *testing.T) {
	cfg := testConfig()
	cfg.NumObjects = 4
	cfg.NumQueries = 1
	cfg.K = 2
	cfg.Ticks = 1
	cfg.Warmup = 0
	// Stationary everything: objects pinned by a zero-speed model.
	factory := func(seed int64) (mobility.Model, error) {
		return mobility.NewRandomDirection(mobility.Config{
			World: cfg.World, MinSpeed: 0, MaxSpeed: 0, Seed: seed,
		}, 10)
	}
	cfg.ObjectModel = factory
	cfg.QueryModel = factory

	m := &answerMethod{answers: map[model.QueryID]model.Answer{}}
	eng, err := NewEngine(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	env := eng.Env()
	// Place objects at controlled distances from the query point.
	q := env.Queries[0].State.Pos
	place := func(id model.ObjectID, dx, dy float64) {
		p := geo.Pt(q.X+dx, q.Y+dy)
		p = cfg.World.Clamp(p)
		env.Objects[int(id)-1].Pos = p
	}
	// Two at distance 10 (tie for rank 2..3), one at 5, one far.
	place(1, 5, 0)
	place(2, 10, 0)
	place(3, 0, 10)
	place(4, 100, 100)

	run := func(ids ...model.ObjectID) *Result {
		ns := make([]model.Neighbor, len(ids))
		for i, id := range ids {
			ns[i] = model.Neighbor{ID: id, Dist: 1} // distances irrelevant to membership audit
		}
		m.answers[1] = model.Answer{Query: 1, Neighbors: ns}
		e2, err := NewEngine(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		env2 := e2.Env()
		q2 := env2.Queries[0].State.Pos
		for i, off := range [][2]float64{{5, 0}, {10, 0}, {0, 10}, {100, 100}} {
			env2.Objects[i].Pos = cfg.World.Clamp(geo.Pt(q2.X+off[0], q2.Y+off[1]))
		}
		res, err := e2.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Truth top-2 = {1, 2} (tie between 2 and 3 broken by id).
	if res := run(1, 2); res.Audit.Exactness() != 1 {
		t.Errorf("canonical answer not exact")
	}
	// Tie-equivalent alternative {1, 3} must audit as exact.
	if res := run(1, 3); res.Audit.Exactness() != 1 {
		t.Errorf("tie-equivalent answer rejected")
	}
	// A genuinely worse member must not.
	if res := run(1, 4); res.Audit.Exactness() != 0 {
		t.Errorf("wrong answer accepted")
	}
	// Wrong cardinality must not.
	if res := run(1); res.Audit.Exactness() != 0 {
		t.Errorf("short answer accepted")
	}
}

func TestRunPropagatesStepErrors(t *testing.T) {
	cfg := testConfig()
	if _, err := Run(cfg, &stuckMethod{}); err == nil {
		t.Fatal("Run swallowed a quiescence error")
	}
}

// runWithProcs runs cfg with GOMAXPROCS set to procs, which is the
// auditor's worker count.
func runWithProcs(t *testing.T, cfg Config, procs int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	res, err := Run(cfg, &nullMethod{})
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
	}
	return res
}

// The parallel auditor must produce bit-identical audit statistics for
// every worker count: chunk boundaries depend only on the query count and
// the chunk accumulators are merged in chunk order. The config uses more
// queries than one audit chunk so several chunks are actually in flight.
func TestAuditWorkersDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.NumObjects = 300
	cfg.NumQueries = auditChunkSize*2 + 17 // spans 3 chunks, last one ragged
	cfg.Ticks = 6
	cfg.Warmup = 1

	results := make([]*Result, 0, 3)
	for _, workers := range []int{1, 4, 8} {
		results = append(results, runWithProcs(t, cfg, workers))
	}
	base := results[0]
	for i, res := range results[1:] {
		if res.Audit != base.Audit {
			t.Errorf("audit stats differ at case %d: %+v vs %+v", i+1, res.Audit, base.Audit)
		}
		if res.Audit.MeanRecall() != base.Audit.MeanRecall() ||
			res.Audit.Exactness() != base.Audit.Exactness() ||
			res.Audit.MeanRadiusError() != base.Audit.MeanRadiusError() {
			t.Errorf("derived audit metrics differ at case %d", i+1)
		}
	}
}

// Range-monitor queries go down the truth.Range audit path; it must
// parallelize identically.
func TestAuditWorkersDeterministicRange(t *testing.T) {
	cfg := testConfig()
	cfg.K = 0
	cfg.QueryRange = 120
	cfg.NumQueries = auditChunkSize + 9
	cfg.Ticks = 4
	cfg.Warmup = 1

	one := runWithProcs(t, cfg, 1)
	eight := runWithProcs(t, cfg, 8)
	if one.Audit != eight.Audit {
		t.Errorf("range audit differs: %+v vs %+v", one.Audit, eight.Audit)
	}
}
