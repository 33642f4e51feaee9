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
// below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "9a0a4246ca3e5765fdd2d48035ce25e0a3895e4c583b69887300c81bda5f6c9b",
	"seed=1/loss-L0":  "b63a6167d47dfcc14a3f70a2f6ceb6cc2491456b0da6aa6340c0921bc6da52d7",
	"seed=1/burst-L0": "c5e46dcfbbf7cc2bce6f6bf8a90e857e8d99e40e7afbb691ac7d8b6c40531cfc",
	"seed=1/delta-L0": "1cd2c68718250e46cd87122b38f8d65c3b22402c340d17415ac32b2f57d016ae",
	"seed=2/clean-L0": "69f1eb096b7b2b5c1fd4e81891c5184b38403292a6b495d02e4a6882a1ad4029",
	"seed=2/loss-L0":  "a9371e95c31fccf98f4d11240de996457898e4fce0e496402957e5784a6060e3",
	"seed=2/burst-L0": "3796454d79e0f87b6c0edb529b348d39cc3dc6cea9cf24b3c33d83c9b8fb29d7",
	"seed=2/delta-L0": "01c964c654cc8fc17de87bdf5dccd7efd33d675f3250ee1a8d5baf04bfa45b01",
	"seed=3/clean-L0": "443ea9cdb732315e864bfb84b95f4eb9938c062f020a9fa4c02be3f12e6ded92",
	"seed=3/loss-L0":  "3da5e1819d0d8eb2d2b7578253e1ebf631658a1fb99dfbbc834be1e065c78562",
	"seed=3/burst-L0": "1637a860e5dbc07796b49eef6df579215a6c7ebe04bba431a0576dab28237db8",
	"seed=3/delta-L0": "633b2a3ebb50767b10a491335f68dd980f7e634b5143a5e81c2fb1fa4a9bcda5",
	"seed=4/clean-L0": "a6781b6f6ea57a9c5579f8f2aa7cb8d8aeac7565bf8b31fa4c9c955eb01d751e",
	"seed=4/loss-L0":  "af3efac9c18cf09f388a0a000eedbd1df9513880e4fb0e4d4ec9b8260a8f7d28",
	"seed=4/burst-L0": "f825e523fc4a70186673d05205c33f950b76c42585ecfd99ee271b2c0e163279",
	"seed=4/delta-L0": "ec9522ee2f6897f1935fac5157460ea6f8d3d64a731dd24220c3c7d04ac6e7f9",
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
