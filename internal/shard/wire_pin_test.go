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
// membership pins below held), and again when the monitoring slack began
// to follow the advertised query track, which lengthens the horizon of a
// slow query and so spaces its reinstalls (the per-step membership pins
// below held), and again when a member on its track stopped reporting
// the exit the server computes from that track (the downlink and per-step
// membership pins below held), and again when a kNN member stopped
// sending exits at all and reports its track instead, which the server
// places on its side of r_b (the downlink and per-step membership pins
// below held), and again when r_b and the side rule began to measure by
// one distance, geo.Point.Dist (the downlink and per-step membership pins
// below held), and again when an Enter began to carry the velocity of the
// object's own last fix (the downlink and per-step membership pins below
// held), and again when probe requests stopped carrying a tick and answer
// resyncs a sequence and a tick (the uplink and per-step membership pins
// below held), and again when probe replies stopped carrying a tick (the
// downlink and per-step membership pins below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "685f6cf91bf1f6bd6f62c23d041a6af5fd7e75919eab1437e550ca912afb8de7",
	"seed=1/loss-L0":  "18bb21213ffb596b619b473c5f36d72027d8d01e137d827c41503985ca4da285",
	"seed=1/burst-L0": "13f0919d7b39981a004656e8c8da12c938528c42061d0352dd8bd89c8d08d254",
	"seed=1/delta-L0": "d8e7d5ee7898553c01a84097e982e527c411a9d243a09c66a32456a68868cef3",
	"seed=2/clean-L0": "a99981c45dbf233c1f3028bd1bac816a4d5fe8da3c3507996f97edd492c8215d",
	"seed=2/loss-L0":  "1ec4c800308799f820ce15ecde10ecc666d71edde831fac1ce3262a2b52a8089",
	"seed=2/burst-L0": "295436691ae73741c43319702284a72d6f7f7c5a625442c58af28db90fc20b21",
	"seed=2/delta-L0": "e58e76aac948ada03529e9e60950c6c98479e09c1e334341596cfadee1bebe05",
	"seed=3/clean-L0": "6b4cb5863d9690fc8f049d24a94b7f648e030ea49b6c7361547358e1ffbe09c1",
	"seed=3/loss-L0":  "090c69dd5cc4dc638771db9d6385945bdc063815d99037672c8ef07d1580611f",
	"seed=3/burst-L0": "19880907780dd9880f32173a55e4576103a7353c215c2f3cdd1342546b0b0827",
	"seed=3/delta-L0": "2510cff234f02a1e9f86fcb84c55751115c732cdb554198f30d9aae1581beb55",
	"seed=4/clean-L0": "dcae43085fb728d6065934ad45ab5ab19c1f9f39482d9009b818c9265cc193ba",
	"seed=4/loss-L0":  "735fa4afafd852c6361db171622e0e07fed35c31e492d107919379dea3ca8f2d",
	"seed=4/burst-L0": "b07b2262af4095da9f9d1647f36fc51b1a80069c4c617ef4574d4c7e4d171c56",
	"seed=4/delta-L0": "8abd3369b8824cb71da486839c48cc6db69a0d94631ec0a8357fa1fde8a68aa7",
}

// uplinkDigests pins uplinkDigest of the lossless scenarios. They held
// when the install cover moved to the advertised frame, which narrowed
// only broadcasts no aware object needed, and were re-captured when
// members began to report tracks: an inside member now re-reports only
// when it leaves the line it last reported, and enter and move reports
// carry a velocity. They were re-captured again when the slack began to
// follow the advertised query track: fewer reinstalls draw fewer side
// reports. They were re-captured again when members on their tracks
// began to leave the answer circle without an ExitReport: the server
// files the crossing from the track it holds, at a tick or a refresh
// install, so the exits left are those of members off their track, and
// the uplink shrinks by those messages alone. They were re-captured again
// when a kNN member's side got one rule on both ends: each of those exits
// is now a MoveReport carrying the member's track (37 → 53 B), which the
// server places outside r_b, and a member re-affirming from outside r_b on
// a track still inside it reports a Move and leaves. They were re-captured
// again when r_b and the side rule began to measure by one distance: a
// refresh's (k+m)-th member no longer lands an ulp outside the r_b it
// sized, which changes what members report after a refresh
// (seed=2/delta-L0 held). They were re-captured again when every track
// report began to carry the velocity of the object's one fix: an Enter
// carries the displacement since the tick before, so an object on a
// straight leg no longer sends a MoveReport a tick after entering, and a
// Move carries the last tick's displacement rather than the mean since
// the member's last report. They were re-captured again when probe
// replies stopped carrying a tick (37 → 29 B each).
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "631de151cbb9f1a0e49f5c6760d273d1d5e8e3545faf8e3a2f8b90113e8539f5",
	"seed=1/delta-L0": "d4c79f5e0496f70fd244bc417153577f391f616d4560fd3ad2db2e7c121fb174",
	"seed=2/clean-L0": "ac325d3a07448c5b08d322eebac2895a6b84ebd45f074b162536e8a17eb6503b",
	"seed=2/delta-L0": "d7421ebc8a6c433dd9932ce8cb4565c474a433083bc263780292e88b575125d0",
	"seed=3/clean-L0": "92a5f9db9c436129f513f23e4992d08a846478276ec19035383bb4644b4d461b",
	"seed=3/delta-L0": "a5b4a6aafd935be697a94dfedc3bef40d65ebe40da6551fdcd4be5ed3ee9edb1",
	"seed=4/clean-L0": "0b3e241d8e2ced3e83d8f7dae4c634909c655c68dc47a908034d174b71a02007",
	"seed=4/delta-L0": "7c7881b416836c732604b45f1293ec0314f1756b5f5761441f23f5b63da1f664",
}

// downlinkDigests pins downlinkDigest of the lossless scenarios. They
// held when members began to report tracks, since reports that repeat
// what the server can extrapolate change nothing it sends, and were
// re-captured when the slack began to follow the advertised query track:
// a slow query's region and horizon are sized from the speed it moves at,
// so its reinstalls are broadcast less often, and again when probe
// requests stopped carrying a tick (41 → 33 B each).
var downlinkDigests = map[string]string{
	"seed=1/clean-L0": "34dbe1821e547b73599a91fdb8b3b01ea3a342e15bc3009f6555dcc33207ff52",
	"seed=1/delta-L0": "1a7541dca9f2234dbb054303d58b1ba1739afd05d76bfa054764774a89cb0e7b",
	"seed=2/clean-L0": "95b507e45f6ed9c96d9b17cac02afb5923d685a1f9c5a1bd9e4979861f0a70cb",
	"seed=2/delta-L0": "3e845626f4ed9ab282e7b9f3853da394445c668741c09142337aae16e57331a6",
	"seed=3/clean-L0": "c25cb0d7b73a43a427b249f080f41cc4fc4f07682cfa59fe117c9f5cbda3cd2a",
	"seed=3/delta-L0": "a4e99c99c381d2728ea7b47ef57afd758b6844bb475170f7ebc174c7049c1369",
	"seed=4/clean-L0": "9664e59f67aacc4662847d71df7375e05a82ece334dddb4ebce9fd2823757173",
	"seed=4/delta-L0": "cfcf241cdaa48b3017152eec99087b5cdc7223cb14b0f39e365a7e5a7e2286f3",
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
