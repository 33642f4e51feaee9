package simnet

import (
	"math/rand"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// Conservation invariant (DESIGN.md §7): for unicast directions, every
// sent message is eventually delivered or dropped, under random loss,
// latency, re-attach churn, and flush timing.
func TestUnicastConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		cfg := testConfig()
		cfg.UplinkLoss = rng.Float64() * 0.5
		cfg.DownlinkLoss = rng.Float64() * 0.5
		cfg.LatencyTicks = rng.Intn(3)
		cfg.Seed = int64(trial)
		n := New(cfg)
		n.AttachServer(&recorder{})
		clients := []model.ObjectID{1, 2, 3, 4, 5}
		for _, id := range clients {
			n.AttachClient(id, &recorder{})
		}
		n.SetPositionOracle(func(model.ObjectID) (geo.Point, bool) {
			return geo.Pt(500, 500), true
		})

		for tick := model.Tick(1); tick <= 50; tick++ {
			n.SetNow(tick)
			for i := 0; i < rng.Intn(10); i++ {
				from := clients[rng.Intn(len(clients))]
				n.ClientSide(from).Uplink(protocol.QueryDeregister{Query: 1})
			}
			for i := 0; i < rng.Intn(10); i++ {
				// Some downlinks target an id that is never attached.
				to := model.ObjectID(rng.Intn(7) + 1)
				n.ServerSide().Downlink(to, protocol.AnswerUpdate{Query: 1, At: tick})
			}
			if rng.Intn(10) == 0 {
				id := clients[rng.Intn(len(clients))]
				n.AttachClient(id, &recorder{})
			}
			n.Flush()
		}
		// Drain anything still due.
		n.SetNow(1000)
		n.Flush()
		c := n.Counters()
		for _, d := range []metrics.Direction{metrics.Uplink, metrics.Downlink} {
			if c.Sent(d) != c.Delivered(d)+c.Dropped(d) {
				t.Fatalf("trial %d: %v sent %d != delivered %d + dropped %d",
					trial, d, c.Sent(d), c.Delivered(d), c.Dropped(d))
			}
		}
		if n.PendingCount() != 0 {
			t.Fatalf("trial %d: %d messages stuck in queue", trial, n.PendingCount())
		}
	}
}
