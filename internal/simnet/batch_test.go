package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// The batched-broadcast equivalence invariant: handing a tick's
// broadcasts to BroadcastBatch must be indistinguishable on the wire
// from the per-item Broadcast loop — identical per-client delivery
// sequences, counters, and consumption of both loss generators — under
// random positions, churn, down clients, plain loss, and burst loss.
// Jitter and duplication are deliberately excluded: a batch shares one
// enqueue-time fault draw where the loop draws per item (see
// BroadcastBatch), which is exactly why the shard property tests scope
// them out too.
func TestBroadcastBatchMatchesSequential(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := Config{
				Geometry:      grid.NewGeometry(world, 16, 16),
				LatencyTicks:  1,
				BroadcastLoss: 0.2,
				Seed:          seed,
				Faults: FaultConfig{
					BroadcastGE: BurstLoss(0.15, 3),
				},
			}
			script := rand.New(rand.NewSource(seed * 104729))
			randPt := func() geo.Point {
				return geo.Pt(script.Float64()*1000, script.Float64()*1000)
			}

			a := newFanoutWorld(cfg, false) // batched sends
			b := newFanoutWorld(cfg, false) // sequential sends
			batcher := a.net.ServerSide().(transport.BatchServerSide)
			nextID := model.ObjectID(1)
			for i := 0; i < 60; i++ {
				p := randPt()
				a.attach(nextID, p)
				b.attach(nextID, p)
				nextID++
			}

			var items []transport.BroadcastItem
			for tick := model.Tick(1); tick <= 50; tick++ {
				for id := model.ObjectID(1); id < nextID; id++ {
					if script.Intn(2) == 0 {
						p := randPt()
						a.place(id, p, true)
						b.place(id, p, true)
					}
				}
				if script.Intn(4) == 0 {
					p := randPt()
					a.attach(nextID, p)
					b.attach(nextID, p)
					nextID++
				}
				if script.Intn(3) == 0 {
					id := model.ObjectID(script.Intn(int(nextID)) + 1)
					down := script.Intn(2) == 0
					a.net.SetClientDown(id, down)
					b.net.SetClientDown(id, down)
				}
				// One batch of 0–4 broadcasts with varied, overlapping
				// coverage, including degenerate regions covering no cells.
				items = items[:0]
				for j := script.Intn(5); j > 0; j-- {
					r := script.Float64()*300 - 10
					c := geo.Circle{Center: randPt(), R: r}
					tag := protocol.AnswerUpdate{Query: model.QueryID(tick*100 + model.Tick(j))}
					items = append(items, transport.BroadcastItem{Region: c, Msg: tag})
				}
				batcher.BroadcastBatch(items)
				for _, it := range items {
					b.net.ServerSide().Broadcast(it.Region, it.Msg)
				}
				a.net.SetNow(tick)
				b.net.SetNow(tick)
				if da, db := a.net.Flush(), b.net.Flush(); da != db {
					t.Fatalf("tick %d: delivered %d (batched) vs %d (sequential)", tick, da, db)
				}
			}
			a.net.SetNow(60)
			b.net.SetNow(60)
			a.net.Flush()
			b.net.Flush()

			ca, cb := a.net.Counters(), b.net.Counters()
			for _, dir := range metrics.Directions() {
				if ca.Sent(dir) != cb.Sent(dir) || ca.SentBytes(dir) != cb.SentBytes(dir) ||
					ca.Delivered(dir) != cb.Delivered(dir) || ca.Dropped(dir) != cb.Dropped(dir) {
					t.Errorf("dir %v: counters differ: sent %d/%d bytes %d/%d delivered %d/%d dropped %d/%d",
						dir, ca.Sent(dir), cb.Sent(dir), ca.SentBytes(dir), cb.SentBytes(dir),
						ca.Delivered(dir), cb.Delivered(dir), ca.Dropped(dir), cb.Dropped(dir))
				}
			}
			for id, ra := range a.recs {
				if rb := b.recs[id]; !slices.Equal(ra.seen, rb.seen) {
					t.Fatalf("client %d: heard %v (batched) vs %v (sequential)", id, ra.seen, rb.seen)
				}
			}
			ba, fa := a.net.RNGBurn()
			bb, fb := b.net.RNGBurn()
			if ba != bb {
				t.Error("base loss RNG streams diverged")
			}
			if fa != fb {
				t.Error("fault RNG streams diverged")
			}
		})
	}
}

// The batched path must also agree with the linear oracle: the scripted
// scenario of TestIndexedFanoutMatchesLinear, mid-fan-out attach/detach
// hooks included, with every tick's broadcasts sent as one batch on both
// networks.
func TestBroadcastBatchLinearReference(t *testing.T) {
	world := geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))
	var hits scriptHits
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			hits.add(runFanoutScript(t, Config{
				Geometry:      grid.NewGeometry(world, 16, 16),
				LatencyTicks:  1,
				BroadcastLoss: 0.1,
				Seed:          seed,
				Faults: FaultConfig{
					BroadcastGE:   BurstLoss(0.15, 3),
					JitterTicks:   1,
					DuplicateProb: 0.1,
				},
			}, seed*15485863, true))
		})
	}
	hits.check(t, 8)
}
