package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// reservePorts picks n distinct loopback addresses by binding and
// releasing listeners; the dial loops' backoff absorbs the tiny window
// in which another process could steal one.
func reservePorts(t *testing.T, n int) []string {
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

func testTCPConfig(node int, addrs []string) TCPConfig {
	return TCPConfig{
		Node:           node,
		Addrs:          addrs,
		Heartbeat:      50 * time.Millisecond,
		DialBackoffMin: 10 * time.Millisecond,
		DialBackoffMax: 100 * time.Millisecond,
	}
}

// linkRecorder collects deliveries thread-safely.
type linkRecorder struct {
	mu   sync.Mutex
	msgs []protocol.Message
	from []int
}

func (r *linkRecorder) handle(from, to int, m protocol.Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs = append(r.msgs, m)
	r.from = append(r.from, from)
}

func (r *linkRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestTCPLinkFullMesh(t *testing.T) {
	const n = 3
	addrs := reservePorts(t, n)
	links := make([]*TCPLink, n)
	recs := make([]*linkRecorder, n)
	for i := 0; i < n; i++ {
		l, err := NewTCPLink(testTCPConfig(i, addrs))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		links[i] = l
		recs[i] = &linkRecorder{}
		l.OnDeliver(recs[i].handle)
	}
	for i, l := range links {
		waitCond(t, 5*time.Second, fmt.Sprintf("node %d mesh", i), func() bool {
			return l.ConnectedCount() == n-1
		})
	}

	// Every ordered pair exchanges one distinct message.
	sent := 0
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if to == from {
				continue
			}
			links[from].Send(from, to, protocol.NodeClientGone{
				Object: model.ObjectID(from*10 + to),
			})
			sent++
		}
	}
	for to := 0; to < n; to++ {
		to := to
		waitCond(t, 5*time.Second, fmt.Sprintf("node %d deliveries", to), func() bool {
			return recs[to].count() == n-1
		})
		recs[to].mu.Lock()
		for i, m := range recs[to].msgs {
			from := recs[to].from[i]
			want := model.ObjectID(from*10 + to)
			if g, ok := m.(protocol.NodeClientGone); !ok || g.Object != want {
				t.Errorf("node %d delivery %d: got %#v from %d, want object %d", to, i, m, from, want)
			}
		}
		recs[to].mu.Unlock()
	}

	// A structured federation message round-trips intact.
	fw := protocol.NodeForward{
		Home:   1,
		Region: geo.Circle{Center: geo.Pt(10, 20), R: 30},
		Inner:  protocol.MonitorInstall{Query: 7, Epoch: 2, QueryPos: geo.Pt(10, 20), Radius: 30},
	}
	links[1].Send(1, 0, fw)
	waitCond(t, 5*time.Second, "forward delivery", func() bool { return recs[0].count() == n })
	recs[0].mu.Lock()
	last := recs[0].msgs[len(recs[0].msgs)-1]
	recs[0].mu.Unlock()
	got, ok := last.(protocol.NodeForward)
	if !ok || got.Home != fw.Home || got.Region != fw.Region {
		t.Fatalf("forward = %#v, want %#v", last, fw)
	}
	if inner, ok := got.Inner.(protocol.MonitorInstall); !ok || inner.Query != 7 || inner.Epoch != 2 {
		t.Fatalf("forward inner = %#v", got.Inner)
	}

	st := links[0].Stats()
	if st.Sent != uint64(n-1) || st.Delivered != uint64(n-1) || st.Dropped != 0 {
		t.Errorf("node 0 stats = %+v", st)
	}
}

// A killed peer is detected, sends to it are metered drops, and a
// restarted peer on the same address is redialed and serves again.
func TestTCPLinkReconnectAfterPeerDeath(t *testing.T) {
	addrs := reservePorts(t, 2)
	l0, err := NewTCPLink(testTCPConfig(0, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	rec0 := &linkRecorder{}
	l0.OnDeliver(rec0.handle)

	l1, err := NewTCPLink(testTCPConfig(1, addrs))
	if err != nil {
		t.Fatal(err)
	}
	rec1 := &linkRecorder{}
	l1.OnDeliver(rec1.handle)
	waitCond(t, 5*time.Second, "pair up", func() bool {
		return l0.PeerUp(1) && l1.PeerUp(0)
	})

	// Kill node 1 entirely.
	l1.Close()
	waitCond(t, 5*time.Second, "death detected", func() bool { return !l0.PeerUp(1) })
	l0.Send(0, 1, protocol.NodeClientGone{Object: 5})
	st := l0.Stats()
	if st.Dropped == 0 {
		t.Error("send to dead peer not metered as drop")
	}

	// Restart node 1 on the same address; node 0's dial loop reconnects.
	l1b, err := NewTCPLink(testTCPConfig(1, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer l1b.Close()
	rec1b := &linkRecorder{}
	l1b.OnDeliver(rec1b.handle)
	waitCond(t, 10*time.Second, "reconnect", func() bool { return l0.PeerUp(1) })
	l0.Send(0, 1, protocol.NodeClientGone{Object: 6})
	waitCond(t, 5*time.Second, "post-reconnect delivery", func() bool { return rec1b.count() == 1 })
}

// A connection that is not a valid peer (wrong opening frame, wrong
// cluster size, or an id that violates the lower-dials-higher policy)
// never becomes a session.
func TestTCPLinkRejectsBadHello(t *testing.T) {
	addrs := reservePorts(t, 2)
	// Only node 1 runs; we impersonate node 0 (and invalid ids) at it.
	l1, err := NewTCPLink(testTCPConfig(1, addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()

	try := func(hello protocol.Message) error {
		c, err := net.Dial("tcp", addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := writePeer(c, hello, time.Second); err != nil {
			t.Fatal(err)
		}
		_, err = (&peerReader{c: c}).next(2 * time.Second)
		return err
	}

	// Wrong cluster size: rejected (connection closed, no hello reply).
	if err := try(protocol.PeerHello{Node: 0, Nodes: 9}); err == nil {
		t.Error("wrong cluster size accepted")
	}
	// Higher id dialing a lower one violates the dial policy.
	if err := try(protocol.PeerHello{Node: 1, Nodes: 2}); err == nil {
		t.Error("self-id hello accepted")
	}
	// A non-hello opening frame is rejected.
	if err := try(protocol.NodeClientGone{Object: 1}); err == nil {
		t.Error("non-hello opening frame accepted")
	}
	// The real node 0 is accepted.
	if err := try(protocol.PeerHello{Node: 0, Nodes: 2}); err != nil {
		t.Errorf("valid hello rejected: %v", err)
	}
}

// A session whose handshake completes after Close swept the peers must
// not be installed: nothing would close it, and Close would wait on its
// read loop for as long as the peer kept heartbeating.
func TestTCPLinkCloseRefusesLateSession(t *testing.T) {
	l, err := NewTCPLink(testTCPConfig(1, reservePorts(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	ours, theirs := net.Pipe()
	defer theirs.Close()
	go func() { // a live peer: heartbeats until its connection is cut
		for writePeer(theirs, protocol.PeerHeartbeat{Node: 0}, time.Second) == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}()
	returned := make(chan struct{})
	go func() {
		l.runSession(0, 0, &peerReader{c: ours})
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Error("session on a closed link still running after 1s")
	}
	if l.PeerUp(0) {
		t.Error("closed link installed a session")
	}
}
