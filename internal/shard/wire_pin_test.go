package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"dmknn/internal/core"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/sim"
	"dmknn/internal/simnet"
)

// wireDigest collapses a complete wire transcript — every send and
// delivery event with all its fields, the per-direction counters and
// byte totals, the final RNG stream positions, and the client-visible
// answers — into one hash. Two runs with equal digests are
// byte-identical on the client wire.
func wireDigest(w *wireRun) string {
	h := sha256.New()
	for _, e := range w.trace.events {
		fmt.Fprintf(h, "e|%d|%d|%d|%d|%d|%d|%d|%d|%g\n",
			e.At, e.Type, e.Node, e.Dir, e.Kind, e.Query, e.Object, e.Seq, e.Value)
	}
	for _, dir := range metrics.Directions() {
		fmt.Fprintf(h, "c|%d|%d|%d|%d|%d|%d\n", dir,
			w.counters.Sent(dir), w.counters.SentBytes(dir),
			w.counters.Delivered(dir), w.counters.Dropped(dir), w.dups[dir])
	}
	fmt.Fprintf(h, "rng|%g|%g\n", w.baseBurn, w.faultBurn)
	for _, a := range w.answers {
		fmt.Fprintf(h, "a|%d|%d", a.Query, a.At)
		for _, n := range a.Neighbors {
			fmt.Fprintf(h, "|%d:%g", n.ID, n.Dist)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// uplinkDigest hashes only the uplink half of a transcript: every
// uplink send, delivery and drop event and the uplink counters. It moves
// exactly when some client transmits differently.
func uplinkDigest(w *wireRun) string {
	h := sha256.New()
	up := int8(metrics.Uplink)
	for _, e := range w.trace.events {
		if e.Dir == up {
			fmt.Fprintf(h, "e|%d|%d|%d|%d|%d|%d|%g\n",
				e.At, e.Type, e.Kind, e.Query, e.Object, e.Seq, e.Value)
		}
	}
	fmt.Fprintf(h, "c|%d|%d|%d|%d|%d\n",
		w.counters.Sent(metrics.Uplink), w.counters.SentBytes(metrics.Uplink),
		w.counters.Delivered(metrics.Uplink), w.counters.Dropped(metrics.Uplink), w.dups[metrics.Uplink])
	return hex.EncodeToString(h.Sum(nil))
}

// downlinkDigest hashes the downlink and broadcast half of a transcript:
// every such send, delivery and drop event and both directions'
// counters. It moves exactly when the server transmits differently.
func downlinkDigest(w *wireRun) string {
	h := sha256.New()
	down, bcast := int8(metrics.Downlink), int8(metrics.Broadcast)
	for _, e := range w.trace.events {
		if e.Dir == down || e.Dir == bcast {
			fmt.Fprintf(h, "e|%d|%d|%d|%d|%d|%d|%d|%g\n",
				e.At, e.Type, e.Dir, e.Kind, e.Query, e.Object, e.Seq, e.Value)
		}
	}
	for _, dir := range []metrics.Direction{metrics.Downlink, metrics.Broadcast} {
		fmt.Fprintf(h, "c|%d|%d|%d|%d|%d|%d\n", dir,
			w.counters.Sent(dir), w.counters.SentBytes(dir),
			w.counters.Delivered(dir), w.counters.Dropped(dir), w.dups[dir])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// noteMemberships hashes the sorted answer ids of every query's client
// after one step. Ids only: distances depend on which positions the
// answer message carried, not on which objects the client holds.
func (w *wireRun) noteMemberships(m sim.Method, queries, step int) {
	var ids []model.ObjectID
	for q := model.QueryID(1); q <= model.QueryID(queries); q++ {
		ids = ids[:0]
		for _, n := range m.Answer(q).Neighbors {
			ids = append(ids, n.ID)
		}
		slices.Sort(ids)
		fmt.Fprintf(w.memberships, "%d|%d|%v\n", step, q, ids)
	}
}

// wireDigests pins the client wire as it stands since installs are
// covered from the advertised frame. It was first captured at commit
// "Adaptive partitioning: load-aware strip rebalancing with live
// migration" and re-captured when the install cover moved from the
// stale install centre to the frame the objects hold, and again when
// answers began to leave once per query per tick from Finalize (the
// uplink and per-step membership pins below held), and again when members
// began to report tracks instead of points (the downlink and per-step
// membership pins below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "94d3809168b9a034d2763437a188a1e34a97460714ac5581b65ea663ba41acb6",
	"seed=1/loss-L0":  "3e6c68f4cc6ecd4cfd51d9ea9828e22c42011880c6994d746cb6d6a460f29252",
	"seed=1/burst-L0": "59f9bce238592db368f4a9711a920fbbb32f266991d0ec8508442fb33642e7a8",
	"seed=1/delta-L0": "9d8a14a95868ea717f2de85978e75f0d60f212e5c7bd8e222af1d4340c950ae1",
	"seed=2/clean-L0": "465f965bb39f25b6b1e8f1f7934fbe4affce3c08a3eff38b6874438e5c840d8a",
	"seed=2/loss-L0":  "9c3d0e4df4dcad1c2abeeb265b393d915d4909f21518e8199e4d7914161cb791",
	"seed=2/burst-L0": "eb814042a61f498904b5d4f819ca0744d52aa1abf4ec7c00feef8c9b004f75ac",
	"seed=2/delta-L0": "09c9e079be5c4afecafb279ec8fbff4db6a23606234ff69a64663faddd0f104b",
	"seed=3/clean-L0": "3dc2d4625167b4f71a7e80e1d4e8b67b5a4782a4cf03eccd9f38dbc7fc04e9d4",
	"seed=3/loss-L0":  "3fb6b75213fc6a9d32b0231ade1f39db49f9f929b41a0877e91a0e042bf112ad",
	"seed=3/burst-L0": "6e7697764ecfb6ca1966a796ea9b4b40b789afbb70b4430305ca66fa4e9d7587",
	"seed=3/delta-L0": "df8e08c1969e6da92c8c88630da8b579c7fd7d5e7c09a86c6bea4a64326a52e4",
	"seed=4/clean-L0": "7ff62df3d7fdeee0af746783c50946d6a15b171cdb1b02b25854f5506add5d79",
	"seed=4/loss-L0":  "45e76b97637a41b5e19464bbcd211bed1ce57db6780155e409f28c1e8d53f0a4",
	"seed=4/burst-L0": "48ee24fdbd87c6c3f35b984f21ac0b2ff460f71b7af7316c33c936548754c579",
	"seed=4/delta-L0": "109b9395b10598cb54a0e86ecd9cc706f7eff9e73049cb840b2006661103e10a",
}

// uplinkDigests pins uplinkDigest of the lossless scenarios. They held
// when the install cover moved to the advertised frame, which narrowed
// only broadcasts no aware object needed, and were re-captured when
// members began to report tracks: an inside member now re-reports only
// when it leaves the line it last reported, and enter and move reports
// carry a velocity.
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "9461d0a09cdcbd37ca1a032f296af4b9b61ea901d0e5e009e7ca2017fdddfc6a",
	"seed=1/delta-L0": "dc9cb3c36299b5978d2545526d727ed6ed1d2c75a77f4530613bc6129b96cf4e",
	"seed=2/clean-L0": "a4b4d67cab58e7dcdee3f6dc4a49975083f3ebebbf83e0a7ed3a850cdd472a56",
	"seed=2/delta-L0": "4d7248af8d214d1428b0176568b88bc1d018c813f6959f3adedd12310937eb81",
	"seed=3/clean-L0": "f9ff30719333912b169b56f139479dbcbf8d980baa09b9e09ae60d5e8f964018",
	"seed=3/delta-L0": "837d9fbfe79df0a83a6ca15e4a599137b34ac935381889c4ba75cf1eb2623037",
	"seed=4/clean-L0": "0ad37e84ed192894fe046f1543e46d19d975b7d6a4c732d3f882bed9b5ffecd0",
	"seed=4/delta-L0": "5ff00986e9ee96839dc5cc7eda1b070cd742cc3a6a5572e61ba8d26f6deeda58",
}

// downlinkDigests pins downlinkDigest of the lossless scenarios, captured
// while members still reported a point on every tick they moved. Reports
// that repeat what the server can extrapolate change nothing it sends, so
// the server-to-client half of the wire must hold when members report
// tracks.
var downlinkDigests = map[string]string{
	"seed=1/clean-L0": "cb224d5a2c909ece47c42083b603d667c9c5c259252f04cbccd88a0bd95da994",
	"seed=1/delta-L0": "c3933fcd3a82eb5d9ec63691c4aedf210d08dab8c62b7e139d910e24e8ab294d",
	"seed=2/clean-L0": "95305106268334025154e57573d3087d8114d0674c1d6865e2f919f45f1dca92",
	"seed=2/delta-L0": "18ed23ff7122d9556697c6b493f287c98be153743b5d1347273359aa05c588e2",
	"seed=3/clean-L0": "89588140cb47dded3acf73c4dd902c8d9491429cda264df31ccad3f067d8fb2e",
	"seed=3/delta-L0": "3acb813be355a085f3bf318830f8e38392ee3fc0bc713d60eb459dd3359f4cef",
	"seed=4/clean-L0": "1394089ed118698cca6566731221757257ea6fd1e59795771a97d66928f743e3",
	"seed=4/delta-L0": "f8b1cb9c945718dca16cf87c3247062c8af3130d98c2a6c2f05eaa0de5b8d9b5",
}

// membershipDigests pins, for the lossless scenarios, which objects every
// query's client holds as its answer at the end of every step. They were
// captured while the server still downlinked an answer after every
// applied report, and held when it began to send one per query per tick
// from Finalize: only the last answer of a tick is ever the one a client
// ends the tick on.
var membershipDigests = map[string]string{
	"seed=1/clean-L0": "23977ebc7d6cda6f1b25634bccf026e7aa453f8f1a7167285b94ca7ec0c51952",
	"seed=1/delta-L0": "23977ebc7d6cda6f1b25634bccf026e7aa453f8f1a7167285b94ca7ec0c51952",
	"seed=2/clean-L0": "a68b08fd5633a91cc7dc6eb97a578cf7199598c58da220a65f84c2514b24b0ba",
	"seed=2/delta-L0": "a68b08fd5633a91cc7dc6eb97a578cf7199598c58da220a65f84c2514b24b0ba",
	"seed=3/clean-L0": "64e06eba8fd6c1531f9a95d1108df73e4f4a629494de1cccc694756463f16ffa",
	"seed=3/delta-L0": "64e06eba8fd6c1531f9a95d1108df73e4f4a629494de1cccc694756463f16ffa",
	"seed=4/clean-L0": "6a5760a7ae5a0a6d0bbca03e7163679c499e15f31f60a92219967c0b1b1f9353",
	"seed=4/delta-L0": "6a5760a7ae5a0a6d0bbca03e7163679c499e15f31f60a92219967c0b1b1f9353",
}

// The client wire identity pin: the single server reproduces the pinned
// wire transcript exactly — across clean, plain-loss, burst-loss, and
// delta-answer channels and 4 seeds — its lossless uplink and per-step
// answer membership still match their pins, and the batched sharded
// pipeline still matches it event for event. Any change that leaks into install timing, message
// sizing, or RNG consumption breaks a digest here before it can silently
// shift the goldens.
func TestClientWireIdentity(t *testing.T) {
	base := proto()
	delta := base
	delta.DeltaAnswers = true
	delta.ResyncTicks = 16

	type scenario struct {
		name  string
		proto core.Config
		mut   func(*sim.Config)
	}
	scenarios := []scenario{
		{name: "clean-L0", proto: base, mut: func(c *sim.Config) {}},
		{name: "loss-L0", proto: base, mut: func(c *sim.Config) {
			c.UplinkLoss = 0.08
			c.DownlinkLoss = 0.05
			c.BroadcastLoss = 0.12
		}},
		{name: "burst-L0", proto: base, mut: func(c *sim.Config) {
			c.UplinkLoss = 0.05
			c.Faults.BroadcastGE = simnet.BurstLoss(0.2, 4)
			c.Faults.UplinkGE = simnet.BurstLoss(0.1, 3)
		}},
		{name: "delta-L0", proto: delta, mut: func(c *sim.Config) {}},
	}

	const ticks = 45
	for seed := int64(1); seed <= 4; seed++ {
		for _, sc := range scenarios {
			sc := sc
			seed := seed
			key := fmt.Sprintf("seed=%d/%s", seed, sc.name)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				cfg := propertyBase(seed)
				sc.mut(&cfg)
				sync := runWire(t, cfg, func() (sim.Method, error) { return core.New(sc.proto) }, ticks)
				if got, want := wireDigest(sync), wireDigests[key]; got != want {
					t.Errorf("client wire changed vs pin:\n got  %s\n want %s", got, want)
				}
				if want, ok := uplinkDigests[key]; ok {
					if got := uplinkDigest(sync); got != want {
						t.Errorf("client uplink changed vs pin:\n got  %s\n want %s", got, want)
					}
				}
				if want, ok := downlinkDigests[key]; ok {
					if got := downlinkDigest(sync); got != want {
						t.Errorf("client downlink changed vs pin:\n got  %s\n want %s", got, want)
					}
				}
				if want, ok := membershipDigests[key]; ok {
					if got := hex.EncodeToString(sync.memberships.Sum(nil)); got != want {
						t.Errorf("per-step answer membership changed vs pin:\n got  %s\n want %s", got, want)
					}
				}
				batched := runWire(t, cfg, func() (sim.Method, error) {
					return NewBatchedMethod(2, sc.proto)
				}, ticks)
				compareWires(t, "shards=2", true, sync, batched)
			})
		}
	}
}
