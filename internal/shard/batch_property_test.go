package shard

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/obs"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
	"dmknn/internal/workload"
)

// wireTrace collects the network-level event stream of one run: every
// send, delivery, and drop the medium performs, in order. Protocol
// lifecycle events (Dir < 0) are excluded — the single server emits them
// and the sharded server does not, and its shards would emit them from
// worker goroutines in nondeterministic relative order.
// The net events are emitted by the medium itself on the engine
// goroutine, so the stream is a deterministic, complete description of
// the client wire.
type wireTrace struct {
	events []obs.Event
}

func (w *wireTrace) Record(e obs.Event) {
	if e.Dir < 0 {
		return
	}
	w.events = append(w.events, e)
}

type wireRun struct {
	trace *wireTrace
	net   interface {
		RNGBurn() (float64, float64)
	}
	counters  *metrics.Counters
	dups      [3]uint64
	baseBurn  float64
	faultBurn float64
	answers   []model.Answer
	// memberships accumulates, step by step, the answer ids every query's
	// client ends the step on (see noteMemberships).
	memberships hash.Hash
}

// runWire drives a method through ticks steps of the engine and returns
// its complete wire transcript plus final RNG stream positions.
func runWire(t *testing.T, cfg sim.Config, mk func() (sim.Method, error), ticks int) *wireRun {
	t.Helper()
	w := &wireRun{trace: &wireTrace{}, memberships: sha256.New()}
	cfg.Trace = w.trace
	method, err := mk()
	if err != nil {
		t.Fatalf("build method: %v", err)
	}
	eng, err := sim.NewEngine(cfg, method)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	for i := 0; i < ticks; i++ {
		if err := eng.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		w.noteMemberships(method, cfg.NumQueries, i)
	}
	net := eng.Env().Net
	w.counters = net.Counters()
	for _, dir := range metrics.Directions() {
		w.dups[dir] = net.Duplicated(dir)
	}
	for q := model.QueryID(1); q <= model.QueryID(cfg.NumQueries); q++ {
		w.answers = append(w.answers, method.Answer(q))
	}
	w.baseBurn, w.faultBurn = net.RNGBurn()
	return w
}

// compareWires asserts two runs are equivalent on the wire. In strict
// mode (zero-latency scenarios) the send-event sequence and the
// delivery/drop-event sequence must each be byte-identical: with L=0 the
// flush cascade alternates pure uplink and pure downlink generations, so
// deferring the server's responses to the drain shifts phase boundaries
// without reordering a single transmission or delivery — and therefore
// without moving a single loss draw. With latency, one flush round mixes
// uplinks with reaction-triggering broadcasts and the synchronous server
// interleaves its responses among the clients' reactions, so the
// cross-direction interleaving legitimately differs; relaxed mode
// compares the per-direction subsequences instead (lossless scenarios
// only, since the loss generators draw across directions in interleaved
// order). Counters, final RNG stream positions, and client-visible
// answers must always match.
func compareWires(t *testing.T, label string, strict bool, want, got *wireRun) {
	t.Helper()
	if strict {
		compareStreams(t, label+"/sends", sel(want.trace.events, func(e obs.Event) bool { return e.Type == obs.EvNetSend }),
			sel(got.trace.events, func(e obs.Event) bool { return e.Type == obs.EvNetSend }))
		compareStreams(t, label+"/delivery", sel(want.trace.events, func(e obs.Event) bool { return e.Type != obs.EvNetSend }),
			sel(got.trace.events, func(e obs.Event) bool { return e.Type != obs.EvNetSend }))
	} else {
		for _, dir := range metrics.Directions() {
			d := int8(dir)
			compareStreams(t, fmt.Sprintf("%s/dir=%d/sends", label, dir),
				sel(want.trace.events, func(e obs.Event) bool { return e.Dir == d && e.Type == obs.EvNetSend }),
				sel(got.trace.events, func(e obs.Event) bool { return e.Dir == d && e.Type == obs.EvNetSend }))
			compareStreams(t, fmt.Sprintf("%s/dir=%d/delivery", label, dir),
				sel(want.trace.events, func(e obs.Event) bool { return e.Dir == d && e.Type != obs.EvNetSend }),
				sel(got.trace.events, func(e obs.Event) bool { return e.Dir == d && e.Type != obs.EvNetSend }))
		}
	}
	for _, dir := range metrics.Directions() {
		if want.counters.Sent(dir) != got.counters.Sent(dir) ||
			want.counters.SentBytes(dir) != got.counters.SentBytes(dir) ||
			want.counters.Delivered(dir) != got.counters.Delivered(dir) ||
			want.counters.Dropped(dir) != got.counters.Dropped(dir) {
			t.Errorf("%s: dir %v counters differ: sent %d/%d bytes %d/%d delivered %d/%d dropped %d/%d",
				label, dir,
				want.counters.Sent(dir), got.counters.Sent(dir),
				want.counters.SentBytes(dir), got.counters.SentBytes(dir),
				want.counters.Delivered(dir), got.counters.Delivered(dir),
				want.counters.Dropped(dir), got.counters.Dropped(dir))
		}
		if want.dups[dir] != got.dups[dir] {
			t.Errorf("%s: dir %v duplicated %d vs %d", label, dir, want.dups[dir], got.dups[dir])
		}
	}
	if want.baseBurn != got.baseBurn {
		t.Errorf("%s: base loss RNG streams diverged", label)
	}
	if want.faultBurn != got.faultBurn {
		t.Errorf("%s: fault RNG streams diverged", label)
	}
	for i := range want.answers {
		a, b := want.answers[i], got.answers[i]
		if a.Query != b.Query || a.At != b.At || len(a.Neighbors) != len(b.Neighbors) {
			t.Fatalf("%s: answer %d differs: %+v vs %+v", label, i, a, b)
		}
		for j := range a.Neighbors {
			if a.Neighbors[j] != b.Neighbors[j] {
				t.Fatalf("%s: answer %d neighbor %d differs", label, i, j)
			}
		}
	}
}

func sel(events []obs.Event, keep func(obs.Event) bool) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

func compareStreams(t *testing.T, label string, want, got []obs.Event) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		a, b := want[i], got[i]
		if a.At != b.At || a.Type != b.Type || a.Dir != b.Dir || a.Object != b.Object || a.Kind != b.Kind {
			t.Fatalf("%s: event %d differs:\n sync    %+v\n batched %+v", label, i, a, b)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d events (sync) vs %d (batched); first %d identical", label, len(want), len(got), n)
	}
}

func propertyBase(seed int64) sim.Config {
	cfg := workload.Quick()
	cfg.NumObjects = 300
	cfg.Seed = seed
	return cfg
}

// The tentpole equivalence property: the batched ingest pipeline — at
// shard counts 1, 2, and 8 — is byte-identical on the client wire to the
// synchronous single server, across 8 seeds and a matrix of network
// conditions: zero and one tick of latency, plain loss on every
// direction, Gilbert–Elliott burst loss, message duplication (alone and
// with loss), and delta answers. Sequences, counters, and RNG stream
// positions must all match. Duplication is inside identity because the
// pipeline hands the medium one Broadcast or Downlink per send, exactly
// the calls the single server makes, so every send takes its own
// duplication draw in the same order.
//
// Jitter is deliberately out of scope: a jitter-delayed uplink's response
// is emitted at the next drain rather than mid-flush. Delta answers are
// paired with zero loss because a delta-sequence gap makes the client
// uplink an AnswerResync synchronously from its downlink handler — the
// one message the queued pipeline processes a phase later than the
// synchronous server. DESIGN.md gives the full ordering argument.
func TestBatchedPipelineWireIdentity(t *testing.T) {
	proto := proto()
	delta := proto
	delta.DeltaAnswers = true
	delta.ResyncTicks = 16

	type scenario struct {
		name   string
		strict bool
		proto  core.Config
		mut    func(*sim.Config)
	}
	scenarios := []scenario{
		{name: "clean-L0", strict: true, proto: proto, mut: func(c *sim.Config) {}},
		{name: "loss-L0", strict: true, proto: proto, mut: func(c *sim.Config) {
			c.UplinkLoss = 0.08
			c.DownlinkLoss = 0.05
			c.BroadcastLoss = 0.12
		}},
		{name: "burst-L0", strict: true, proto: proto, mut: func(c *sim.Config) {
			c.UplinkLoss = 0.05
			c.Faults.BroadcastGE = simnet.BurstLoss(0.2, 4)
			c.Faults.UplinkGE = simnet.BurstLoss(0.1, 3)
		}},
		{name: "delta-L0", strict: true, proto: delta, mut: func(c *sim.Config) {}},
		{name: "dup-L0", strict: true, proto: proto, mut: func(c *sim.Config) {
			c.Faults.DuplicateProb = 0.1
		}},
		{name: "dup-loss-L0", strict: true, proto: proto, mut: func(c *sim.Config) {
			c.Faults.DuplicateProb = 0.1
			c.UplinkLoss = 0.05
			c.BroadcastLoss = 0.1
		}},
		{name: "clean-L1", strict: false, proto: proto, mut: func(c *sim.Config) {
			c.LatencyTicks = 1
		}},
		{name: "delta-L2", strict: false, proto: delta, mut: func(c *sim.Config) {
			c.LatencyTicks = 2
		}},
	}

	const ticks = 45
	for seed := int64(1); seed <= 8; seed++ {
		for _, sc := range scenarios {
			sc := sc
			seed := seed
			t.Run(fmt.Sprintf("seed=%d/%s", seed, sc.name), func(t *testing.T) {
				t.Parallel()
				cfg := propertyBase(seed)
				sc.mut(&cfg)
				sync := runWire(t, cfg, func() (sim.Method, error) { return core.New(sc.proto) }, ticks)
				for _, shards := range []int{1, 2, 8} {
					batched := runWire(t, cfg, func() (sim.Method, error) {
						return NewBatchedMethod(shards, sc.proto)
					}, ticks)
					compareWires(t, fmt.Sprintf("shards=%d", shards), sc.strict, sync, batched)
				}
			})
		}
	}
}
