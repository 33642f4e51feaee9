package dmknn_test

// End-to-end adaptive-partitioning test over real processes and real
// sockets: a four-node dknnd federation with the balancer on, a hotspot
// workload crammed into node 0's strip, and the chaos the balancer must
// survive — a kill of the column-receiving node immediately after the
// first migration, while monitors and objects are still in flight to it.
// The audit is the same brute-force exactness check as the static
// federation e2e: the answer must be recall 1.00 at every checkpoint.

import (
	"testing"
	"time"

	"dmknn"
)

// TestFederationBalanceChaos proves the migration-safety invariant over
// sockets. With 10 grid columns over 4 nodes the static strips split as
// 3/3/2/2 columns (boundaries at x=300, 600, 800); nine of twelve
// clients plus the query sit in node 0's strip, so the coordinator must
// shift boundary columns toward node 1. Checkpoints: exact before any
// move; node 1 killed right after the first PartitionUpdate commits and
// rejoined at version 0 (forcing the stale-peer map push); then an
// object teleports into the focal neighborhood and the answer must track
// it exactly across whatever map the cluster has converged on.
func TestFederationBalanceChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	const nodes = 4
	peers := reserveLoopbackPorts(t, nodes)
	clients := reserveLoopbackPorts(t, nodes)

	// Balance decisions every 5 ticks (500ms): fast enough to observe,
	// slow enough that each move's migration settles between decisions.
	balEnv := fedBalanceEnv + "=5"
	procs := make([]*fedProc, nodes)
	for i := 0; i < nodes; i++ {
		procs[i] = spawnFedNode(t, i, peers, clients, balEnv)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.shutdown()
			}
		}
	})
	for _, p := range procs {
		p.expect(t, "READY", 20*time.Second)
	}
	for _, p := range procs {
		p.expect(t, "HEALTHY", 20*time.Second)
	}

	// Hotspot: objects 1-8 and 12 (and the focal query) live in node 0's
	// strip, with 3, 4, 7, 12 inside boundary column 2 (x in [200,300)) —
	// the column the first move hands to node 1. Objects 3 and 12 are in
	// the k=5 answer, so post-move exactness exercises installs and
	// reports crossing the moved ownership.
	focal := dmknn.Point{X: 150, Y: 500}
	positions := &fedPositions{pos: map[dmknn.ObjectID]dmknn.Point{
		1:  {X: 150, Y: 480}, // d=20
		2:  {X: 160, Y: 520}, // d≈22
		3:  {X: 250, Y: 500}, // column 2, d=100
		4:  {X: 250, Y: 300}, // column 2, far
		5:  {X: 120, Y: 300}, // d≈202
		6:  {X: 80, Y: 800},  // far
		7:  {X: 220, Y: 700}, // column 2, far
		8:  {X: 180, Y: 200}, // far
		9:  {X: 450, Y: 500}, // strip 1
		10: {X: 650, Y: 500}, // strip 2
		11: {X: 850, Y: 500}, // strip 3
		12: {X: 250, Y: 520}, // column 2, d≈102
	}}

	clientOpts := dmknn.ClientOptions{
		World:        fedWorld(),
		GridCols:     fedGrid,
		GridRows:     fedGrid,
		TickInterval: fedTick,
		Protocol:     fedProtocol(),
	}
	for id := dmknn.ObjectID(1); id <= 12; id++ {
		id := id
		oc, err := dmknn.DialObject(clients, id,
			func() dmknn.Point { return positions.get(id) }, clientOpts)
		if err != nil {
			t.Fatalf("object %d: %v", id, err)
		}
		t.Cleanup(func() { oc.Close() })
	}
	const k = 5
	qc, err := dmknn.DialQuery(clients, 100, 1, k,
		func() dmknn.Point { return focal },
		func() dmknn.Vector { return dmknn.Vector{} },
		nil, clientOpts)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	t.Cleanup(func() { qc.Close() })
	truth := func() map[dmknn.ObjectID]bool { return positions.knn(focal, k) }

	// Checkpoint 1: exact under the static map, before the balancer has
	// enough load history to act.
	auditExact(t, "steady state", qc, truth, 60*time.Second)

	// The coordinator announces the first committed column move. Kill the
	// receiving side of the migration (node 1) immediately — its acked
	// map, the monitors shipped to it, and its client sessions all die
	// while the coordinator may still be retrying the update.
	procs[0].expect(t, "MOVED", 60*time.Second)
	procs[1].kill()
	procs[1] = spawnFedNode(t, 1, peers, clients, balEnv)
	procs[1].expect(t, "READY", 20*time.Second)
	procs[1].expect(t, "HEALTHY", 30*time.Second)

	// The rejoined node starts at partition version 0; the peer-hello
	// version exchange must push it the current map before routing
	// settles. Exactness here covers the migrating ticks: clients of the
	// moved column re-attach, their monitors re-learn, and the answer
	// still matches brute force.
	auditExact(t, "after receiver kill+rejoin", qc, truth, 90*time.Second)

	// Finally, movement across the rebalanced boundary: the far object 11
	// teleports into the focal neighborhood (entering the answer), which
	// only resolves if the converged map routes its reports to whichever
	// node now owns the focal region's columns.
	positions.set(11, dmknn.Point{X: 200, Y: 500})
	auditExact(t, "after teleport across moved boundary", qc, truth, 90*time.Second)
}
