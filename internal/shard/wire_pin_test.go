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
// below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "64be940479d5a01aa0a336aff9910565545167ad5baaab055ab503a77a2510e5",
	"seed=1/loss-L0":  "a9052d23d5f458b604dc7e1ddffe2f1ab3849c5658a38af8acec9b71d6b86e77",
	"seed=1/burst-L0": "9eb73da9e0d50893dbdd89a6bab83d97612c14bb2e9372f9721af9f3766c5fe7",
	"seed=1/delta-L0": "eea153286fdda64bec87361b52aa86851e0140be3bf7d3203a30896a425c5fd6",
	"seed=2/clean-L0": "25483079c217b8a548180871a5c8e2d058e3e39b57b696824a9121de6bd63375",
	"seed=2/loss-L0":  "c42102d6afb0b8887748220de20509fcd5694ad220a3c4b703c4770d8a91d402",
	"seed=2/burst-L0": "1eff92a3b88cade07fc2d0962b9de0614f34f4df5f76384b88560b69547088f1",
	"seed=2/delta-L0": "98711fd9745acaf93e0ab8f091a1e2473a725a16a9700c0ba3534ed15d9d8ef2",
	"seed=3/clean-L0": "c00db2442f4185d2a6e26c465f7e0aeb4091de0968498fab836ba806c3ffa974",
	"seed=3/loss-L0":  "1e5d6c572ed3d9680d8b06a0fb3f22ffbed9cc5f68cfad0ffe4bc900a3d29416",
	"seed=3/burst-L0": "8a4d88f233ed10b812ca192bdad1b3a8aa7134f0207e07a230d825ee3f51b722",
	"seed=3/delta-L0": "ea11722e547d532b89aa6689ad9e5a40acaef40fc0fdddc0708edfe7fda430ce",
	"seed=4/clean-L0": "69b5c2ebf20ab10921ab88627085110bd99640e8aadee9a52ace8f853eda3fcc",
	"seed=4/loss-L0":  "b79852846f20529d2c83b2c4e2b974352f797960d86f9d7561545fe8455f7f51",
	"seed=4/burst-L0": "d476d37471f69d62de4602823310fb65997bfe2431c06a30e093aded201c77a4",
	"seed=4/delta-L0": "3dc98ca589cd01a72f72e48f7d3e81f3bd6a1ab73564cc7fa506ecf7cbade59b",
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
// (seed=2/delta-L0 held).
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "274030fd11626286ed2f6d8e12192a03e3f0fcef7207cf07200ff9bb10d8807b",
	"seed=1/delta-L0": "ccd1d5052cd70e314eb2bf2f227acc113166e22fc9d70e2254dd2e4d0e8a51a2",
	"seed=2/clean-L0": "3ce8ad1fc72aedb41095caaa14d100e7d5311df96acd71c33f6b36897a6d6953",
	"seed=2/delta-L0": "9ca23e925ad430541c31000c355211887cf4c6ca6a532b9636cd346fe2c512f1",
	"seed=3/clean-L0": "a107e074506e1a6402a3f9fc656dbfbb5400ec6c17a4c15e0d503955f7585d93",
	"seed=3/delta-L0": "8a7a5e1c4c23fad0c1bd4f9d54265f79d001a1270010c189bde9df33f928fbeb",
	"seed=4/clean-L0": "1965619586dc484f1682af620504f38c2617b067930378394a7ca03812cc22db",
	"seed=4/delta-L0": "52c34866a832331460aed377497aa01b7a1edd3975520de179d592dc3f0a2cb5",
}

// downlinkDigests pins downlinkDigest of the lossless scenarios. They
// held when members began to report tracks, since reports that repeat
// what the server can extrapolate change nothing it sends, and were
// re-captured when the slack began to follow the advertised query track:
// a slow query's region and horizon are sized from the speed it moves at,
// so its reinstalls are broadcast less often.
var downlinkDigests = map[string]string{
	"seed=1/clean-L0": "63e95a92047446d55307f4e3a074ec86fafcbb8960a6085f150d79c287e231ba",
	"seed=1/delta-L0": "dce0aedf1d64a0a27650c3079315576e18534335660a185cd0b8e8e5ecf3db34",
	"seed=2/clean-L0": "04a2c26fdae82f23dc6d19fb5da91fda94d6460ca0b1813a7b90394bb5916f83",
	"seed=2/delta-L0": "60a8f61c6fa398f7d5871cb918deeec544b303edffa6d8a2135c09f85dbb75b8",
	"seed=3/clean-L0": "a31ba90cb345bc4e47413cb3f388686470d9676728ff954c930d5d767f7766db",
	"seed=3/delta-L0": "aa257f74c6447a7460b5ef62c4450f20a44d11684c791d51bc77910ca509f886",
	"seed=4/clean-L0": "3d3bddc4b25338ec042e29029534c9fede69c1c1cd3786a3f0cc09bab097ca0f",
	"seed=4/delta-L0": "82d7fdc345d2cef667d28850773f36579db7739e0098e1732e12a8ac29764d77",
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
