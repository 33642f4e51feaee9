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
// held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "1c4f9a8882336050e8f6af2bac6a314565cda51fcc82509074ab5c12b6a56037",
	"seed=1/loss-L0":  "5feee770205bd5be0a22bd514e1d12b2078f75e442b309c6a80cf5722de94a28",
	"seed=1/burst-L0": "b1ec9421a7469daf7147dcf1587c41ddc282ed6909254ab7c9b15aed84a5eae6",
	"seed=1/delta-L0": "00c989ff8a3f0daa8a5880eab82a30a5a1312124a76053aeb8a4a249b59fdb9c",
	"seed=2/clean-L0": "7d78c4ebe2054c43d173b7b9456ebfc5a95aba4e1fc1d55b4ec205c62824b1a4",
	"seed=2/loss-L0":  "34c0168a113509bdf784846153648ebc4d96ca25daad4d10536a93f7689d70f9",
	"seed=2/burst-L0": "23d4f20b152853cd4afeb31078236aef94f92f5c5ecdd8b866f36c38a52d5758",
	"seed=2/delta-L0": "8675907c69e9f81e50e4a8c54853f9655b978742bf1efa5d2a5efbe3ac29ad3c",
	"seed=3/clean-L0": "9c1801677c0815c0a008c9bdb9ea174276c09ea4c762cfe45aa7e9244e4c2eb2",
	"seed=3/loss-L0":  "fe4d26662ac0a73e34b5c3b588360cf142fa980f96d2702b0c824bd20df5bcab",
	"seed=3/burst-L0": "acf5d7edd14759fbd65a57ebf9ca012b2f89f6fd6651a47fcc54410db345b59e",
	"seed=3/delta-L0": "36abe259d3beed0d6b0c3d7d7d474676a1448daa2b2dd538d31c4cb37ce2e4ae",
	"seed=4/clean-L0": "5dfff5f2095f69e6ab821455962dca994406a40cc11038ff78364e35f8b4275d",
	"seed=4/loss-L0":  "08d5eee5c829dab9ad5711947c23c27305e0f59336835d6922e920f96441df59",
	"seed=4/burst-L0": "f70d3824ab4e7fe44afb2bd87ebdbfac3ce1f70fc09540f063020130bebc94b2",
	"seed=4/delta-L0": "70315edb971a675be0c5d6fe0c0bcd916918b701ac296c3404e8b3936bcd153b",
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
// the member's last report.
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "66bf972f26dd24c00ec75aca554ba71661be6a821320b5c8a7fbea8728303fe6",
	"seed=1/delta-L0": "aae9afeae30537bce8b2bebd121babfdaf471e7a79ba5b0613b83395c1438a97",
	"seed=2/clean-L0": "7be0983f79762d3e118efd1aa80915d1b559dc22bf9190aa300431ab209ef7a6",
	"seed=2/delta-L0": "5c9871f065dc2493ab164604ab48d75c996529e9f222dc676c9f384f2ef686cf",
	"seed=3/clean-L0": "4ddf87f6071c7b6fcb7105b4c4e6a9fe832c4af200502b63eba94da268af8c28",
	"seed=3/delta-L0": "06f81c22f0c9deae0fe5e9df013328b31cf7b12f491cd1842abb2d706d3bb826",
	"seed=4/clean-L0": "cadefdc912f318f79e8e0a3fdc0688153bb36254fc6367d82b431dd59c61658e",
	"seed=4/delta-L0": "8926c2670bf4d601758089c7f4fcd7d3a5e0210a32599d6ceaf5e28eb7c92bbc",
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
