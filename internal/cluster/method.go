package cluster

import (
	"fmt"

	"dmknn/internal/balance"
	"dmknn/internal/core"
	"dmknn/internal/grid"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
)

// Method plugs the federation into the simulation engine. It is
// core.Method over a Cluster — the clients cannot tell how many nodes
// serve them; only the server's interior (partition, link, per-node
// servers) differs — plus the federation's own inspection surface.
type Method struct {
	*core.Method
	cluster *Cluster
	link    *MemLink
}

var (
	_ sim.Method        = (*Method)(nil)
	_ sim.ExtraReporter = (*Method)(nil)
	_ core.Engine       = (*Cluster)(nil)
	_ core.Engine       = (*Member)(nil)
)

// NewMethod returns a DKNN method served by a federation of n nodes
// connected by an in-memory link with the given latency/loss profile.
func NewMethod(n int, cfg core.Config, linkCfg LinkConfig) (*Method, error) {
	return newMethod("dknn-cluster", n, cfg, linkCfg, nil)
}

// NewAdaptiveMethod returns the federation method with the load balancer
// enabled: the partition starts even and evolves under bcfg as the
// workload skews.
func NewAdaptiveMethod(n int, cfg core.Config, linkCfg LinkConfig, bcfg balance.Config) (*Method, error) {
	return newMethod("dknn-cluster-adaptive", n, cfg, linkCfg, &bcfg)
}

func newMethod(name string, n int, cfg core.Config, linkCfg LinkConfig, bcfg *balance.Config) (*Method, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: non-positive node count %d", n)
	}
	linkCfg.validate()
	m := &Method{}
	// A cross-boundary exchange pays radio latency plus link latency; both
	// servers and clients size their reply deadlines from the total.
	inner, err := core.NewMethod(name, cfg, linkCfg.LatencyTicks,
		func(cfg core.Config, deps core.ServerDeps, env *sim.Env) (core.Engine, error) {
			part, err := NewPartition(env.Geometry, n)
			if err != nil {
				return nil, err
			}
			m.link = NewMemLink(linkCfg, deps.Now)
			// The radio cell filters read the partition through the shared
			// ref, not a captured value, so a balancer-driven column move
			// retargets every node's broadcast surface the instant the map
			// is installed.
			ref := NewPartitionRef(part)
			cl, err := New(part, cfg, Deps{
				Link: m.link,
				Radio: func(node int) transport.ServerSide {
					return env.Net.RestrictedServerSide(func(c grid.Cell) bool {
						return ref.Load().CellOwner(c) == node
					})
				},
				Now:            deps.Now,
				DT:             deps.DT,
				MaxObjectSpeed: deps.MaxObjectSpeed,
				MaxQuerySpeed:  deps.MaxQuerySpeed,
				LatencyTicks:   deps.LatencyTicks,
				Trace:          deps.Trace,
				PartRef:        ref,
			})
			if err != nil {
				return nil, err
			}
			if bcfg != nil {
				cl.EnableBalancer(*bcfg)
			}
			m.cluster = cl
			m.link.OnDeliver(cl.HandleLink)
			for i := range env.Objects {
				cl.SeedHome(env.Objects[i].ID, env.Objects[i].Pos)
			}
			for i := range env.Queries {
				cl.SeedHome(env.Queries[i].State.ID, env.Queries[i].State.Pos)
			}
			return cl, nil
		})
	if err != nil {
		return nil, err
	}
	m.Method = inner
	return m, nil
}

// Cluster exposes the federation (tests and harnesses inspect it).
func (m *Method) Cluster() *Cluster { return m.cluster }

// Link exposes the inter-node link.
func (m *Method) Link() *MemLink { return m.link }

// ExtraMetrics implements sim.ExtraReporter with the federation-level
// cumulative counters: link traffic, handoff events, balancer moves, and
// each node's cumulative busy time (the engine diffs these over the
// measured phase, so experiments can derive per-node load imbalance).
func (m *Method) ExtraMetrics() map[string]float64 {
	ls := m.link.Stats()
	cs := m.cluster.Stats()
	out := map[string]float64{
		"link_sent":       float64(ls.Sent),
		"link_delivered":  float64(ls.Delivered),
		"link_dropped":    float64(ls.Dropped),
		"link_bytes":      float64(ls.SentBytes),
		"object_handoffs": float64(cs.ObjectHandoffs),
		"query_handoffs":  float64(cs.QueryHandoffs),
		"relay_drops":     float64(cs.RelayDrops),
		"column_moves":    float64(cs.ColumnMoves),
	}
	for i, n := range m.cluster.nodes {
		out[fmt.Sprintf("node%d_busy_us", i)] = float64(n.BusyTime().Microseconds())
	}
	return out
}
