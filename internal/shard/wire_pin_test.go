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
// below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "37c40af2fcd83e8389be3486ed838078a9430198ca71ded5b929d4e990d081d1",
	"seed=1/loss-L0":  "4517b49db23c59fe42d68be15044b5252972e8e6c5c9c6614ff1b6f99c5e9c3c",
	"seed=1/burst-L0": "dee85069a6a1dc902ec0b88690076655b60e5ac9015153885b67f00e2f6af1d1",
	"seed=1/delta-L0": "c3fbe4f6d0b102fd81e55ff5e536a2fec2b4e5104385248f8679e93634dc4cc3",
	"seed=2/clean-L0": "3adace469d41261784b3ffdf365cdffef1dfc70da7a268566641b4ae6b1933e2",
	"seed=2/loss-L0":  "af7d8f6cfc0641b1a031727a9a573fbc2efd2e1bdb2885da4f1527822e66be3e",
	"seed=2/burst-L0": "7a68dd367f4997464390b01e64394bafa4164ef763b1e3d51a7020562fc4d7b9",
	"seed=2/delta-L0": "636a24f0606057a92b5e66f3f4e97206861192584aaca279c08692bcc33ab1dd",
	"seed=3/clean-L0": "7fe59c7194a7bcd58e1a7d7709277d56bfa0fcbe93441ba07666db3316599bea",
	"seed=3/loss-L0":  "bed9d0ed05ae2f35c9e12eb263141fcdc5d9e41e2dd2571c9748092d31ed1664",
	"seed=3/burst-L0": "0d6b81027f07e216e36e030a92097802b19aadcdf35ab113eadeca23bdcaca85",
	"seed=3/delta-L0": "4b0c3712812e8e5e6466e9be952928c85deb539be779694298af27d2ee21468a",
	"seed=4/clean-L0": "09782f3ec4180f3bcc09b5d6bffae618c4427cd87c5e1e424f3a0574e4e58f07",
	"seed=4/loss-L0":  "82981ec0395d181018502ac87c2ec9fca0ea32eb7c01d09491ccb735795bcff4",
	"seed=4/burst-L0": "0e54b2719359db44a82b8d445dd17fb4b154e546ba9c9f0e55dec45fcd0b5da1",
	"seed=4/delta-L0": "0ee0199aa6d6256e0d1f6bb23f36139f95daf9534e9b2dd667aae0eca7382549",
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
// a track still inside it reports a Move and leaves.
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "8d1f6114d42364bb080d38e2283fa1b79ac8c335c7062b874d84a35b02744d4c",
	"seed=1/delta-L0": "0f453b3deeb9a33bd325079ee16a2f38c083cf52e17ed7cc1c340baa7fd4c566",
	"seed=2/clean-L0": "cc604d30178455661009abac47c9c5180f4ab0b824ce809c627ace3de72426e7",
	"seed=2/delta-L0": "9ca23e925ad430541c31000c355211887cf4c6ca6a532b9636cd346fe2c512f1",
	"seed=3/clean-L0": "74e00599bd28f3a6e0325dd7831eb53e1b3e661763562c109f3b1bc7d5398fca",
	"seed=3/delta-L0": "a0bb3c5aa2bc4b311e60dc10a34b32f14e5dce7d021cdd581ed0733eb512de8c",
	"seed=4/clean-L0": "5fe6390a7571c85cf54f50a0c21c041976bee55de6dbfca6cce20c32d7f62777",
	"seed=4/delta-L0": "6f16e9fe15e45a8d57b8f0dbef7cb29aba8cf32055072bdd20c758e1d4a147f1",
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
