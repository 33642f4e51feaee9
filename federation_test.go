package dmknn_test

// End-to-end federation test over real processes and real sockets: four
// dknnd nodes, each a separate OS process (this test binary re-executed
// with -test.run targeting the helper below), clients in the parent
// process, loopback TCP everywhere. The audit is exactness: the
// continuous query's answer must equal the brute-force kNN of the known
// positions (recall 1.00) — initially, after cross-strip handoffs, and
// after a chaos kill + rejoin of a non-home node.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dmknn"
)

const (
	fedHelperEnv  = "DKNN_FED_HELPER_NODE"
	fedPeersEnv   = "DKNN_FED_PEERS"
	fedClientsEnv = "DKNN_FED_CLIENTS"
	fedBalanceEnv = "DKNN_FED_BALANCE" // balance interval in ticks; empty/absent = static partition

	fedWorldSide = 1000.0
	fedGrid      = 10
	fedTick      = 100 * time.Millisecond
)

func fedProtocol() dmknn.Protocol {
	return dmknn.Protocol{HorizonTicks: 8, AnswerSlack: 1, MinProbeRadius: 150}
}

func fedWorld() dmknn.Rect {
	return dmknn.Rect{MinX: 0, MinY: 0, MaxX: fedWorldSide, MaxY: fedWorldSide}
}

// TestHelperFederationNode is not a test: it is the body of one
// federation node process, re-executed by TestFederationFourProcess.
// It starts the node, prints READY (then HEALTHY once every peer link
// session is up), and serves until its stdin closes or it is killed.
func TestHelperFederationNode(t *testing.T) {
	nodeStr := os.Getenv(fedHelperEnv)
	if nodeStr == "" {
		t.Skip("helper: runs only as a re-executed child process")
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		fmt.Println("HELPER-ERROR:", err)
		os.Exit(1)
	}
	opts := dmknn.FederationOptions{
		ServerOptions: dmknn.ServerOptions{
			World:          fedWorld(),
			GridCols:       fedGrid,
			GridRows:       fedGrid,
			TickInterval:   fedTick,
			MaxObjectSpeed: 10,
			Protocol:       fedProtocol(),
		},
		Node:        node,
		PeerAddrs:   strings.Split(os.Getenv(fedPeersEnv), ","),
		ClientAddrs: strings.Split(os.Getenv(fedClientsEnv), ","),
		Heartbeat:   100 * time.Millisecond,
	}
	if iv := os.Getenv(fedBalanceEnv); iv != "" {
		n, err := strconv.Atoi(iv)
		if err != nil {
			fmt.Println("HELPER-ERROR:", err)
			os.Exit(1)
		}
		opts.BalanceInterval = n
		opts.BalanceMinGain = 0.02
	}
	srv, err := dmknn.ListenAndServeNode(opts)
	if err != nil {
		fmt.Println("HELPER-ERROR:", err)
		os.Exit(1)
	}
	fmt.Println("READY")
	go func() {
		for !srv.Healthy() {
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Println("HEALTHY")
	}()
	if os.Getenv(fedBalanceEnv) != "" {
		// The parent times its chaos to the first column move; announce it.
		go func() {
			for srv.Stats().PartitionVersion == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			fmt.Println("MOVED")
		}()
	}
	if os.Getenv("DKNN_FED_DEBUG") != "" {
		go func() {
			for {
				st := srv.Stats()
				fmt.Fprintf(os.Stderr, "node%d ver=%d owned=%d att=%d localQ=%d oh=%d qh=%d redir=%d drop=%d mov=%d peers=%d ldrop=%d\n",
					node, st.PartitionVersion, st.OwnedColumns, st.Attached, st.LocalQueries,
					st.ObjectHandoffs, st.QueryHandoffs, st.Redirects, st.RelayDrops, st.BalanceMoves,
					st.PeersUp, st.LinkDropped)
				time.Sleep(2 * time.Second)
			}
		}()
	}
	// Serve until the parent closes our stdin (graceful) or kills us
	// (chaos). Stdout is line-scanned by the parent, so only the marker
	// lines above go there.
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
	os.Exit(0)
}

// fedProc is one node process under the parent's control.
type fedProc struct {
	node  int
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
}

func spawnFedNode(t *testing.T, node int, peers, clients []string, extraEnv ...string) *fedProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperFederationNode$")
	cmd.Env = append(os.Environ(),
		fedHelperEnv+"="+strconv.Itoa(node),
		fedPeersEnv+"="+strings.Join(peers, ","),
		fedClientsEnv+"="+strings.Join(clients, ","),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &fedProc{node: node, cmd: cmd, stdin: stdin, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // parent stopped listening; drop
			}
		}
		close(p.lines)
	}()
	return p
}

// expect waits for a stdout line containing marker.
func (p *fedProc) expect(t *testing.T, marker string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case l, ok := <-p.lines:
			if !ok {
				t.Fatalf("node %d exited before printing %q", p.node, marker)
			}
			if strings.Contains(l, "HELPER-ERROR") {
				t.Fatalf("node %d: %s", p.node, l)
			}
			if strings.Contains(l, marker) {
				return
			}
		case <-deadline:
			t.Fatalf("node %d: no %q within %v", p.node, marker, timeout)
		}
	}
}

// kill terminates the process abruptly (chaos) and reaps it.
func (p *fedProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// shutdown asks for a graceful exit and reaps the process.
func (p *fedProc) shutdown() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

func reserveLoopbackPorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// fedPositions is the parent's ground truth: every object's position,
// shared with the client position sensors.
type fedPositions struct {
	mu  sync.Mutex
	pos map[dmknn.ObjectID]dmknn.Point
}

func (f *fedPositions) get(id dmknn.ObjectID) dmknn.Point {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pos[id]
}

func (f *fedPositions) set(id dmknn.ObjectID, p dmknn.Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pos[id] = p
}

// knn returns the ids of the k objects nearest q, ties broken by id —
// the brute-force truth the protocol's answer is audited against.
func (f *fedPositions) knn(q dmknn.Point, k int) map[dmknn.ObjectID]bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	type cand struct {
		id dmknn.ObjectID
		d2 float64
	}
	var cands []cand
	for id, p := range f.pos {
		dx, dy := p.X-q.X, p.Y-q.Y
		cands = append(cands, cand{id, dx*dx + dy*dy})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d2 != cands[j].d2 {
			return cands[i].d2 < cands[j].d2
		}
		return cands[i].id < cands[j].id
	})
	want := map[dmknn.ObjectID]bool{}
	for i := 0; i < k && i < len(cands); i++ {
		want[cands[i].id] = true
	}
	return want
}

// auditExact polls until the query's answer matches truth exactly
// (recall 1.00 at the audited size).
func auditExact(t *testing.T, phase string, qc *dmknn.QueryClient, truth func() map[dmknn.ObjectID]bool, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		a := qc.Answer()
		want := truth()
		if len(a.Neighbors) == len(want) {
			exact := true
			for _, n := range a.Neighbors {
				if !want[n.ID] {
					exact = false
					break
				}
			}
			if exact {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: answer %v never matched truth %v", phase, a.Neighbors, want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFederationFourProcess is the federation's end-to-end audit: four
// single-node dknnd processes over loopback TCP, twelve clients in the
// parent, and three exactness checkpoints — steady state, after objects
// teleport across strip boundaries (object handoff + client migration),
// and after a chaos kill and rejoin of a node the query is not homed at.
func TestFederationFourProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	const nodes = 4
	peers := reserveLoopbackPorts(t, nodes)
	clients := reserveLoopbackPorts(t, nodes)

	procs := make([]*fedProc, nodes)
	for i := 0; i < nodes; i++ {
		procs[i] = spawnFedNode(t, i, peers, clients)
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

	// With 10 grid columns over 4 nodes the strips split as 3/3/2/2
	// columns: boundaries at x=300, 600, 800. The focal point sits in
	// strip 1; its k=5 neighborhood spans all four strips.
	focal := dmknn.Point{X: 450, Y: 500}
	positions := &fedPositions{pos: map[dmknn.ObjectID]dmknn.Point{
		1: {X: 430, Y: 500}, // strip 1, d=20
		2: {X: 250, Y: 500}, // strip 0, d=200
		3: {X: 650, Y: 500}, // strip 2, d=200
		4: {X: 850, Y: 500}, // strip 3, d=400
		5: {X: 460, Y: 520}, // strip 1, d≈22
		6: {X: 50, Y: 950},  // strip 0, far
		7: {X: 950, Y: 50},  // strip 3, far
		8: {X: 750, Y: 950}, // strip 2, far
	}}

	clientOpts := dmknn.ClientOptions{
		World:        fedWorld(),
		GridCols:     fedGrid,
		GridRows:     fedGrid,
		TickInterval: fedTick,
		Protocol:     fedProtocol(),
	}
	for id := dmknn.ObjectID(1); id <= 8; id++ {
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

	// Checkpoint 1: steady state. The k=5 answer spans strips 0..3, so
	// exactness here already proves cross-node install/report relaying.
	auditExact(t, "steady state", qc, truth, 60*time.Second)

	// Checkpoint 2: two objects teleport across strip boundaries —
	// object 4 from strip 3 into the focal strip (entering the front of
	// the answer), object 3 from strip 2 to the far corner of strip 3
	// (leaving it). Their clients migrate attachment; membership flips.
	positions.set(4, dmknn.Point{X: 550, Y: 500})
	positions.set(3, dmknn.Point{X: 950, Y: 950})
	auditExact(t, "after handoffs", qc, truth, 60*time.Second)

	// Checkpoint 3: chaos. Kill node 3 — NOT the query's home (the
	// focal point is in strip 1) — losing the processes' sessions and
	// the clients attached there, then rejoin it on the same addresses.
	procs[3].kill()
	procs[3] = spawnFedNode(t, 3, peers, clients)
	procs[3].expect(t, "READY", 20*time.Second)
	procs[3].expect(t, "HEALTHY", 30*time.Second)

	// After re-convergence, an object served by the rejoined node moves
	// into the focal strip; the answer must track it exactly — which
	// requires the rejoined node to have re-learned the query and its
	// reattached clients to be live.
	positions.set(7, dmknn.Point{X: 500, Y: 450})
	auditExact(t, "after rejoin", qc, truth, 90*time.Second)
}

// A range client of a two-node federation in one process, over loopback
// sockets. Its circle spans the strip boundary, so the answer holds
// members of both nodes' strips, relayed over the peer link.
func TestFederatedRangeAcrossStrips(t *testing.T) {
	const nodes = 2
	peers := reserveLoopbackPorts(t, nodes)
	clients := reserveLoopbackPorts(t, nodes)
	srvs := make([]*dmknn.NodeServer, nodes)
	for i := range srvs {
		srv, err := dmknn.ListenAndServeNode(dmknn.FederationOptions{
			ServerOptions: dmknn.ServerOptions{
				World:          fedWorld(),
				GridCols:       fedGrid,
				GridRows:       fedGrid,
				TickInterval:   fedTick,
				MaxObjectSpeed: 10,
				Protocol:       fedProtocol(),
			},
			Node:        i,
			PeerAddrs:   peers,
			ClientAddrs: clients,
			Heartbeat:   100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
	}
	for deadline := time.Now().Add(20 * time.Second); !srvs[0].Healthy() || !srvs[1].Healthy(); {
		if time.Now().After(deadline) {
			t.Fatal("peer link never came up")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// With 10 grid columns over 2 nodes the boundary is at x=500. The
	// focal point sits in strip 0, 20 m from it; the 100 m circle reaches
	// 80 m into strip 1.
	focal := dmknn.Point{X: 480, Y: 500}
	positions := map[dmknn.ObjectID]dmknn.Point{
		1: {X: 450, Y: 500}, // strip 0, d=30
		2: {X: 430, Y: 440}, // strip 0, d≈78
		3: {X: 560, Y: 500}, // strip 1, d=80
		4: {X: 530, Y: 560}, // strip 1, d≈78
		5: {X: 620, Y: 500}, // strip 1, d=140
		6: {X: 380, Y: 400}, // strip 0, d≈141
		7: {X: 900, Y: 900}, // strip 1, far
	}
	want := map[dmknn.ObjectID]bool{1: true, 2: true, 3: true, 4: true}
	clientOpts := dmknn.ClientOptions{
		World:        fedWorld(),
		GridCols:     fedGrid,
		GridRows:     fedGrid,
		TickInterval: fedTick,
		Protocol:     fedProtocol(),
	}
	for id, p := range positions {
		oc, err := dmknn.DialObject(clients, id, func() dmknn.Point { return p }, clientOpts)
		if err != nil {
			t.Fatalf("object %d: %v", id, err)
		}
		t.Cleanup(func() { oc.Close() })
	}
	qc, err := dmknn.DialRange(clients, 100, 1, 100,
		func() dmknn.Point { return focal },
		func() dmknn.Vector { return dmknn.Vector{} },
		nil, clientOpts)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	t.Cleanup(func() { qc.Close() })
	auditExact(t, "range across strips", qc, func() map[dmknn.ObjectID]bool { return want }, 30*time.Second)
}
