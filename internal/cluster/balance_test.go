package cluster

import (
	"fmt"
	"testing"

	"dmknn/internal/balance"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/workload"

	"dmknn/internal/sim"
)

// The migration-safety invariant of adaptive partitioning: with the
// balancer enabled under a skewed (hotspot) workload, the partition map
// actually moves — and every audited answer on every tick, including the
// ticks a column migration is in flight, stays exact. Clients must not be
// able to tell the map changed.
func TestAdaptiveClusterStaysExactUnderHotspot(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			cfg, err := workload.WithMobility(workload.Quick(), workload.ModelHotspot)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Ticks = 120
			m, err := NewAdaptiveMethod(nodes, proto(), LinkConfig{}, balance.Config{
				IntervalTicks: 8,
				MinGain:       0.02,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			if res.Audit.Evaluations() == 0 {
				t.Fatal("no audited answers")
			}
			if ex := res.Audit.Exactness(); ex != 1.0 {
				t.Fatalf("exactness = %v (recall mean %v, worst %v) — adaptive partitioning broke the invariant",
					ex, res.Audit.MeanRecall(), res.Audit.WorstRecall())
			}
			st := m.Cluster().Stats()
			if st.ColumnMoves == 0 {
				t.Fatal("hotspot run never moved a column — balancer inert")
			}
			if got := m.Cluster().Partition().Version(); got != st.ColumnMoves {
				t.Errorf("partition version %d != column moves %d", got, st.ColumnMoves)
			}
			bs := m.Cluster().BalancerStats()
			if bs.Moves != st.ColumnMoves {
				t.Errorf("balancer moves %d != applied moves %d", bs.Moves, st.ColumnMoves)
			}
			if bs.Decisions < bs.Moves {
				t.Errorf("decisions %d < moves %d", bs.Decisions, bs.Moves)
			}
			// The shared ref tracks the coordinator's map, and every member
			// applied each move exactly once: the run ends on one version.
			cl := m.Cluster()
			want := cl.nodes[coordinatorNode].Partition().Version()
			if rv := cl.PartitionRef().Load().Version(); rv != want {
				t.Errorf("partition ref at version %d, coordinator at %d", rv, want)
			}
			for i, n := range cl.nodes {
				if v := n.Partition().Version(); v != want {
					t.Errorf("node %d at version %d, coordinator at %d", i, v, want)
				}
				if mv := n.Stats().ColumnMoves; mv != st.ColumnMoves {
					t.Errorf("node %d applied %d moves, cluster counts %d", i, mv, st.ColumnMoves)
				}
			}
		})
	}
}

// With the balancer disabled nothing changes: the map stays at version 0
// and no columns move, so the static federation is bit-for-bit the
// pre-balancer one.
func TestStaticClusterNeverMovesColumns(t *testing.T) {
	cfg, err := workload.WithMobility(workload.Quick(), workload.ModelHotspot)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Ticks = 60
	m := mustMethod(t, 4, proto(), LinkConfig{})
	res, err := sim.Run(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if ex := res.Audit.Exactness(); ex != 1.0 {
		t.Fatalf("exactness = %v", ex)
	}
	if st := m.Cluster().Stats(); st.ColumnMoves != 0 {
		t.Errorf("static cluster moved %d columns", st.ColumnMoves)
	}
	if v := m.Cluster().Partition().Version(); v != 0 {
		t.Errorf("static cluster at partition version %d", v)
	}
}

// The coordinator's retry, in process: with every PartitionUpdate to one
// peer, or every PartitionAck from it, lost for two balancer intervals on
// an otherwise ideal link, the coordinator resends that map each tick
// until the peer acks it and proposes no further move before then; every
// member and the radio's shared ref end on one map, and every audited
// answer stays exact.
func TestCoordinatorRetriesLostPartitionMessage(t *testing.T) {
	for _, lostAck := range []bool{false, true} {
		t.Run(fmt.Sprintf("lostAck=%v", lostAck), func(t *testing.T) {
			const peer = 2
			cfg, err := workload.WithMobility(workload.Quick(), workload.ModelHotspot)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Ticks = 120
			bcfg := balance.Config{IntervalTicks: 8, MinGain: 0.02}
			m, err := NewAdaptiveMethod(3, proto(), LinkConfig{}, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := sim.NewEngine(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			cl := m.Cluster()
			// The outage starts once the audit runs, so the ticks the peer
			// spends on the old map are checked too.
			link := &lossyDelivery{next: cl.HandleLink, now: eng.Now}
			link.lose = func(from, to int, msg protocol.Message) bool {
				if eng.Now() <= model.Tick(cfg.Warmup) ||
					len(link.lost) > 0 && eng.Now() >= link.lost[0].at+model.Tick(2*bcfg.IntervalTicks) {
					return false
				}
				if lostAck {
					_, ok := msg.(protocol.PartitionAck)
					return ok && from == peer
				}
				_, ok := msg.(protocol.PartitionUpdate)
				return ok && to == peer
			}
			m.Link().OnDeliver(link.deliver)
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(link.lost) == 0 {
				t.Fatal("no partition message to lose: the coordinator never distributed a map")
			}
			v, first, last := link.lost[0].version, link.lost[0].at, link.lost[len(link.lost)-1].at
			for _, d := range link.lost {
				if d.version != v {
					t.Fatalf("lost version %d during the outage of version %d", d.version, v)
				}
			}
			if last == first {
				t.Fatalf("version %d was never resent during the outage", v)
			}
			// The peer's ack of the lost version, delivered to the coordinator.
			acked := -1
			for i, d := range link.log {
				if d.ack && d.from == peer && d.version == v {
					acked = i
					break
				}
			}
			if acked < 0 {
				t.Fatalf("peer %d never acked version %d after the outage at ticks %d–%d", peer, v, first, last)
			}
			for _, d := range link.log[:acked] {
				if !d.ack && d.version > v {
					t.Fatalf("version %d distributed at tick %d, before peer %d acked version %d",
						d.version, d.at, peer, v)
				}
			}
			want := cl.nodes[coordinatorNode].Partition().Version()
			if want <= v {
				t.Errorf("coordinator at version %d: no move after the outage of version %d", want, v)
			}
			for i, n := range cl.nodes {
				if got := n.Partition().Version(); got != want {
					t.Errorf("node %d on version %d, coordinator on %d", i, got, want)
				}
			}
			if got := cl.PartitionRef().Load().Version(); got != want {
				t.Errorf("partition ref on version %d, coordinator on %d", got, want)
			}
			if ex := res.Audit.Exactness(); ex != 1.0 {
				t.Errorf("exactness = %v (recall mean %v, worst %v)", ex, res.Audit.MeanRecall(), res.Audit.WorstRecall())
			}
			t.Logf("version %d lost %d times, ticks %d–%d; coordinator ends on version %d", v, len(link.lost), first, last, want)
		})
	}
}
