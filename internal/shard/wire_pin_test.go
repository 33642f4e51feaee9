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
// membership pins below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "ab21d12f8fe62a0d63bf9eea4ca40d1fa9b7cc5cd3d3e6f5cdc1ead385b4b3d9",
	"seed=1/loss-L0":  "c40919b7edf28f25970cf10e158f8942501f4fca24c435acdd0fe253eef8c353",
	"seed=1/burst-L0": "d84f262baf2f25a7c857248de08a7ce44f8f009e26661b084f401a09c883faa2",
	"seed=1/delta-L0": "2cb43a9be50248f1ec755881d117e915d797af3a4df26248a34dc323d2ebb419",
	"seed=2/clean-L0": "fa849d93ddb1e8a3e07bf78b47c99c5980d98bbaa862689ad033124c165f0c29",
	"seed=2/loss-L0":  "8fc7bfb2f0aa66e01b4144c001393b3939e4722c6330660ecda20cb7bef53fe9",
	"seed=2/burst-L0": "a7ee7d80d04f9cdc745e04ff62a22063f0d3848434dafdb9091cf1610138bc1e",
	"seed=2/delta-L0": "d1d9efe913d119a297cafcd2dadead9fbaf9af9395fff283430f3775a1aa64cb",
	"seed=3/clean-L0": "d77c248d913f7994f511464b58f6b6ff2c82c3f272759ca8a826244cbf0a41e5",
	"seed=3/loss-L0":  "773c7d427295781ac1012b5ca7f2ff71b58ad14fb2a969904f20374f637edd82",
	"seed=3/burst-L0": "8ac2d6859d38f0981d45bb9527fdcbbb0ea6a8ca14d4744696b5b4c961b55102",
	"seed=3/delta-L0": "de2cce8faeb8939c6db98cb1bd338fbe28dceb2203c7bdc3af89e51d7fd54707",
	"seed=4/clean-L0": "7a591ca1a4014c91d734403d50af072cf1227e73f0d8e6e3b8453810d680759b",
	"seed=4/loss-L0":  "d750d7d944431a73b7237ad2d43ea69b81d397864dcef986bfc4201f388974c7",
	"seed=4/burst-L0": "b7a15c050a7c1aea47e8a75d899229845ec9f45a612546fe7fa4a0bbe853ee33",
	"seed=4/delta-L0": "43d22467607d2153238b9ef2b00e42245992c1efa7252fc4241dea8989269b99",
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
// the uplink shrinks by those messages alone.
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "c86f8c72d2a812d2d0cbbe1cc4e83e78e4bd96e6c470eae0966d81b4b11c810c",
	"seed=1/delta-L0": "2833a7e7cd958c4c5a7e06ef35978c02191a944d58fe8343667af6133f90f7f9",
	"seed=2/clean-L0": "1422cd0c8b56053a7a6617413089ef1ace309ed6154fb4a9e4533f3e83be5ec5",
	"seed=2/delta-L0": "a727349232de8dc6b4beb376ebe058af2e63ecdf93668aa0db1c73466189a6e5",
	"seed=3/clean-L0": "680fac8008fc804816bcfdd0f176fc0f8bca49d23f8f7d868704ad314cd05104",
	"seed=3/delta-L0": "fa12455bd52700b1a482c050d7dc61262c561bf6b103a7b6359ce41dc6d1adc6",
	"seed=4/clean-L0": "6304720897f28e45fbef575bc6c76eaf25c26a604919af5b261f691891ef286a",
	"seed=4/delta-L0": "7494b916dff5be8510276ab1e3e91c749cd4ac97787fef0a42da0450e2e94c80",
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
