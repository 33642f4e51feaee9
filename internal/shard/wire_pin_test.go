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
// below held). The engine must
// keep producing these transcripts byte for byte: same message
// sequences, same wire bytes, same loss draws, same answers.
var wireDigests = map[string]string{
	"seed=1/clean-L0": "f82bdc73abecaa63eac00902df0fe4a51100c255f49ee3156eacf9392382242e",
	"seed=1/loss-L0":  "d59ec4f7d6f5350611ed59d6e230c10116fa8dee2578ef69dff7313c6b28e5c3",
	"seed=1/burst-L0": "7b9e04d3e1b6829386c6fe6971bfdae94ebab177dfe6660878ed95eae8e11a54",
	"seed=1/delta-L0": "983a63eb3da1467424e858bac36230ad8cc63a13da62034834c427ff253f8dc5",
	"seed=2/clean-L0": "43439da9449def5f2b8ec832f059ca58a5541486f8f44529c1238119f0cbff92",
	"seed=2/loss-L0":  "d6278984cf49a46651ec561bac6cffe728461ee568753d3bca2b9ce280c9f26c",
	"seed=2/burst-L0": "c930d2c5524408c6a29453539b9ea096e19ec27055e866d4bb00a94c10b629f3",
	"seed=2/delta-L0": "7211727b1a4a2d2143b3a3c5e2bc24117c726429224c43f26e6e38ddb77cc96c",
	"seed=3/clean-L0": "72278004a6e2b149d4d1cb7663fcf1bc5178e5bbebc8a8cc7b1203ea5840c320",
	"seed=3/loss-L0":  "ee1f96058d7d92e371ad0622345a852ffab1cce342bb26f625d9a1f5c7c4139f",
	"seed=3/burst-L0": "4644719beac26851ccbb85c6024de044f3b46bf1567f1468fb12313cefd98578",
	"seed=3/delta-L0": "2e666d0f839a62a8b66c0dec9252550c6a63247da3a2f890aae55e1d2594fc61",
	"seed=4/clean-L0": "b9eeed355b42da357594b353bf8417a1ee4393805aa4bcd8fdc8476d03f77034",
	"seed=4/loss-L0":  "5393d39d4ae552024b5d9a4fe1cb2bdc6a0bfbe9d9084edfe93792a10339e82d",
	"seed=4/burst-L0": "13eeade75df52d1375f364b45eb206583e7a79f65733ebcc3e2b581fc13bd692",
	"seed=4/delta-L0": "7e6ead7c74dc39941af5b013df20d8304404c65479c13bfcc758842b127ab632",
}

// uplinkDigests pins uplinkDigest of the lossless scenarios. They held
// when the install cover moved to the advertised frame, which narrowed
// only broadcasts no aware object needed, and were re-captured when
// members began to report tracks: an inside member now re-reports only
// when it leaves the line it last reported, and enter and move reports
// carry a velocity. They were re-captured again when the slack began to
// follow the advertised query track: fewer reinstalls draw fewer side
// reports.
var uplinkDigests = map[string]string{
	"seed=1/clean-L0": "2e39f666bc012c1e1d8ffbeac5b2d8271d1cc03fce6f147428a1c8713b1a7110",
	"seed=1/delta-L0": "ce87fdba385e641f904df82c4f7fea6a6ae8dbc8aa39c3a9e4c403383de047d4",
	"seed=2/clean-L0": "0e6abc35d25feb1b1351ae1dd203770fc973661ba65a484aa66a628f66978148",
	"seed=2/delta-L0": "b45876837833c5bba687f0afa691871da67b40c6b61aefa5688575b8f6652daa",
	"seed=3/clean-L0": "8dda2edabe1b49e3027fc1086344f6d1f4826a1c30ff32d1050a62bd9a53a6f5",
	"seed=3/delta-L0": "bccdeb9046b91bed89f3eb6aadd81d381b33423288b6d1c78083e956cf96ca54",
	"seed=4/clean-L0": "55b90214da23827ffb28765f1c58969ba52226fe08eaa9555661053cd6698292",
	"seed=4/delta-L0": "506d580d271c1477df2a4923c09a2a06d05cce48e656195fefc7bbe5dcb7a047",
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
