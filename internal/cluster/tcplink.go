package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dmknn/internal/nettcp"
	"dmknn/internal/protocol"
)

// TCPConfig parameterizes a TCPLink, the inter-node transport of a
// multi-process federation.
type TCPConfig struct {
	// Node is this process's node id.
	Node int
	// Addrs holds every node's peer listen address, indexed by node id;
	// Addrs[Node] is the address this link listens on (":0" picks a free
	// port). len(Addrs) is the cluster size.
	Addrs []string
	// Heartbeat is the keepalive cadence on an idle peer connection; a
	// peer silent for 3 heartbeats is declared dead and redialed, and the
	// link's other timings follow from it. Defaults to DefaultHeartbeat.
	Heartbeat time.Duration
}

// DefaultHeartbeat is the peer keepalive cadence when TCPConfig leaves it
// zero.
const DefaultHeartbeat = 500 * time.Millisecond

func (c TCPConfig) withDefaults() TCPConfig {
	if c.Heartbeat == 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	return c
}

// A dial gives up after 3 heartbeats, a redial backs off from a tenth of
// one, doubling, up to 4 (50 ms to 2 s at the default), and a frame write
// times out after 10, so a peer whose reader stalled is redialed instead
// of blocking the federation's send path.
func (c TCPConfig) dialBackoffMin() time.Duration { return c.Heartbeat / 10 }
func (c TCPConfig) dialBackoffMax() time.Duration { return 4 * c.Heartbeat }
func (c TCPConfig) writeTimeout() time.Duration   { return 10 * c.Heartbeat }

// TCPLink carries inter-node messages over real TCP connections, one per
// peer pair: the lower-numbered node dials, the higher-numbered accepts,
// so exactly one connection exists per pair and a simultaneous-open race
// cannot happen. Connections open with a PeerHello exchange validating
// peer-wire version, node id and cluster size, stay alive under
// PeerHeartbeat keepalives, and redial with exponential backoff when they
// drop.
//
// Unlike MemLink there is no queue: Send writes the frame immediately
// (delivery is push-driven from the peer's read goroutine), a send to a
// disconnected peer is a metered drop — the federation protocol tolerates
// loss by design, healing through handoff retry and periodic reinstalls —
// and Flush is a no-op returning 0.
//
// Send and the delivery callback run on arbitrary goroutines; the
// consumer must be safe for concurrent use (Member serializes internally).
type TCPLink struct {
	cfg     TCPConfig
	ln      net.Listener
	deliver func(from, to int, m protocol.Message)

	mu      sync.Mutex
	peers   []*peerConn // indexed by node id; [self] unused
	stats   LinkStats
	closed  bool
	version func() uint64                  // stamped into outgoing hellos
	onHello func(peer int, version uint64) // observes peer hello versions

	wg sync.WaitGroup
}

// peerConn is the live session to one peer, nil conn when down.
type peerConn struct {
	mu   sync.Mutex // serializes writes and conn replacement
	conn net.Conn
}

// peerReader reads one peer connection's frames, first for the handshake
// and then for the session: frames sent right behind a hello are in buf.
type peerReader struct {
	c   net.Conn
	fr  nettcp.FrameReader
	buf [4096]byte // a handful of peers, not one per mobile client
}

// next reads one frame, giving up on a peer silent for patience.
func (r *peerReader) next(patience time.Duration) (protocol.Message, error) {
	r.c.SetReadDeadline(time.Now().Add(patience))
	return r.fr.Next(r.c, r.buf[:])
}

// writePeer sends one frame under a write deadline.
func writePeer(c net.Conn, m protocol.Message, timeout time.Duration) error {
	c.SetWriteDeadline(time.Now().Add(timeout))
	defer c.SetWriteDeadline(time.Time{})
	return nettcp.WriteFrame(c, m)
}

// NewTCPLink binds the node's peer listener and starts the accept and
// dial loops. The delivery handler must be installed with OnDeliver
// before any peer traffic can arrive — in practice, before peers are up;
// frames arriving earlier are metered as drops.
func NewTCPLink(cfg TCPConfig) (*TCPLink, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Addrs)
	if n < 1 {
		return nil, fmt.Errorf("cluster: tcp link needs at least one address")
	}
	if cfg.Node < 0 || cfg.Node >= n {
		return nil, fmt.Errorf("cluster: tcp link node %d outside [0,%d)", cfg.Node, n)
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Node])
	if err != nil {
		return nil, fmt.Errorf("cluster: tcp link listen: %w", err)
	}
	l := &TCPLink{cfg: cfg, ln: ln}
	l.peers = make([]*peerConn, n)
	for i := range l.peers {
		l.peers[i] = &peerConn{}
	}
	l.wg.Add(1)
	go l.acceptLoop()
	for peer := cfg.Node + 1; peer < n; peer++ {
		l.wg.Add(1)
		go l.dialLoop(peer)
	}
	return l, nil
}

// Addr returns the bound peer listen address (useful with ":0").
func (l *TCPLink) Addr() net.Addr { return l.ln.Addr() }

// OnDeliver installs the delivery handler, called from peer read
// goroutines.
func (l *TCPLink) OnDeliver(fn func(from, to int, m protocol.Message)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.deliver = fn
}

// SetVersion installs the supplier whose value is stamped into outgoing
// PeerHello frames (the partition map version in a balance-enabled
// federation). Nil leaves hellos at version 0.
func (l *TCPLink) SetVersion(fn func() uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version = fn
}

// OnHello installs an observer of peer hello versions, invoked from
// session goroutines once a handshake completes (after the session is
// live, so the observer may send to the peer) and for every in-session
// PeerHello frame. A balance-enabled Member uses it to push the current
// partition map to peers that handshake with a stale version.
func (l *TCPLink) OnHello(fn func(peer int, version uint64)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onHello = fn
}

func (l *TCPLink) notifyHello(peer int, version uint64) {
	l.mu.Lock()
	fn := l.onHello
	l.mu.Unlock()
	if fn != nil {
		fn(peer, version)
	}
}

// Send implements Link: write the frame to the peer's live connection,
// or meter a drop if the peer is down. Loss is survivable by protocol
// design; liveness is restored by the dial loop.
func (l *TCPLink) Send(from, to int, m protocol.Message) {
	l.mu.Lock()
	l.stats.Sent++
	l.stats.SentBytes += uint64(protocol.EncodedSize(m))
	l.mu.Unlock()
	if to < 0 || to >= len(l.peers) || to == l.cfg.Node {
		l.drop()
		return
	}
	if err := l.peers[to].write(m, l.cfg.writeTimeout()); err != nil {
		l.drop()
		return
	}
	l.mu.Lock()
	l.stats.Delivered++
	l.mu.Unlock()
}

// Flush implements Link. Delivery is push-driven by the peer read
// goroutines, so there is never anything queued to flush.
func (l *TCPLink) Flush() int { return 0 }

// Stats implements Link.
func (l *TCPLink) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// PeerUp reports whether the session to a peer is currently established.
func (l *TCPLink) PeerUp(peer int) bool {
	if peer < 0 || peer >= len(l.peers) || peer == l.cfg.Node {
		return false
	}
	p := l.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn != nil
}

// ConnectedCount returns how many peer sessions are established.
func (l *TCPLink) ConnectedCount() int {
	n := 0
	for i := range l.peers {
		if l.PeerUp(i) {
			n++
		}
	}
	return n
}

// Close stops the listener, tears down every peer session, and waits for
// the loops to exit.
func (l *TCPLink) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	err := l.ln.Close()
	for i, p := range l.peers {
		if i == l.cfg.Node {
			continue
		}
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.mu.Unlock()
	}
	l.wg.Wait()
	return err
}

func (l *TCPLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

func (l *TCPLink) drop() {
	l.mu.Lock()
	l.stats.Dropped++
	l.mu.Unlock()
}

func (l *TCPLink) hello() protocol.PeerHello {
	h := protocol.PeerHello{Wire: protocol.PeerWireVersion, Node: uint16(l.cfg.Node), Nodes: uint16(len(l.cfg.Addrs))}
	l.mu.Lock()
	ver := l.version
	l.mu.Unlock()
	if ver != nil {
		h.Version = ver()
	}
	return h
}

// ---------------------------------------------------------------------------
// Connection establishment

// acceptLoop serves the listener: each accepted connection must open with
// a valid PeerHello of this build's peer-wire version from a
// lower-numbered node (the dial policy), is answered with our own hello,
// and becomes that peer's session.
func (l *TCPLink) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return // Close shut the listener
		}
		l.wg.Add(1)
		go func(c net.Conn) {
			defer l.wg.Done()
			r := &peerReader{c: c}
			peer, ver, err := l.acceptHandshake(r)
			if err != nil {
				c.Close()
				return
			}
			l.runSession(peer, ver, r)
		}(c)
	}
}

func (l *TCPLink) acceptHandshake(r *peerReader) (int, uint64, error) {
	m, err := r.next(3 * l.cfg.Heartbeat)
	if err != nil {
		return 0, 0, err
	}
	hello, ok := m.(protocol.PeerHello)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: peer opened with %v, want peer-hello", m.Kind())
	}
	peer := int(hello.Node)
	if hello.Wire != protocol.PeerWireVersion || int(hello.Nodes) != len(l.cfg.Addrs) || peer >= l.cfg.Node || peer < 0 {
		return 0, 0, fmt.Errorf("cluster: bad peer hello wire=%d node=%d nodes=%d", hello.Wire, hello.Node, hello.Nodes)
	}
	if err := writePeer(r.c, l.hello(), l.cfg.writeTimeout()); err != nil {
		return 0, 0, err
	}
	return peer, hello.Version, nil
}

// dialLoop keeps the session to a higher-numbered peer alive: dial,
// handshake, serve until the connection dies, back off, redial.
func (l *TCPLink) dialLoop(peer int) {
	defer l.wg.Done()
	backoff := l.cfg.dialBackoffMin()
	for !l.isClosed() {
		r, ver, err := l.dialHandshake(peer)
		if err != nil {
			time.Sleep(backoff)
			backoff = min(2*backoff, l.cfg.dialBackoffMax())
			continue
		}
		backoff = l.cfg.dialBackoffMin()
		l.runSession(peer, ver, r)
	}
}

func (l *TCPLink) dialHandshake(peer int) (*peerReader, uint64, error) {
	c, err := net.DialTimeout("tcp", l.cfg.Addrs[peer], 3*l.cfg.Heartbeat)
	if err != nil {
		return nil, 0, err
	}
	if err := writePeer(c, l.hello(), l.cfg.writeTimeout()); err != nil {
		c.Close()
		return nil, 0, err
	}
	r := &peerReader{c: c}
	m, err := r.next(3 * l.cfg.Heartbeat)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	hello, ok := m.(protocol.PeerHello)
	if !ok || hello.Wire != protocol.PeerWireVersion || int(hello.Node) != peer || int(hello.Nodes) != len(l.cfg.Addrs) {
		c.Close()
		return nil, 0, fmt.Errorf("cluster: bad hello reply from peer %d: %#v", peer, m)
	}
	return r, hello.Version, nil
}

// runSession installs c as the peer's live connection, pumps heartbeats,
// and reads frames until the connection dies; a read silent for three
// heartbeat intervals counts as death. Returns after tearing the session
// down (the dial loop redials; the accept loop waits for the peer to).
func (l *TCPLink) runSession(peer int, ver uint64, r *peerReader) {
	p := l.peers[peer]
	p.mu.Lock()
	// Installing after Close swept the sessions would leave this one
	// open, and Close waiting on it, for as long as the peer heartbeats.
	if l.isClosed() {
		p.mu.Unlock()
		r.c.Close()
		return
	}
	if p.conn != nil {
		p.conn.Close() // a reconnect replaces the previous session
	}
	p.conn = r.c
	p.mu.Unlock()

	// Surface the handshake's map version only once the session is live,
	// so the observer can answer over the link it was notified on.
	l.notifyHello(peer, ver)

	stop := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(l.cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if p.write(protocol.PeerHeartbeat{}, l.cfg.writeTimeout()) != nil {
					return
				}
			}
		}
	}()

	for {
		m, err := r.next(3 * l.cfg.Heartbeat)
		if err != nil {
			break
		}
		switch v := m.(type) {
		case protocol.PeerHeartbeat:
			continue // liveness only; the deadline reset is the effect
		case protocol.PeerHello:
			l.notifyHello(peer, v.Version) // in-session version refresh
			continue
		}
		l.mu.Lock()
		fn := l.deliver
		l.mu.Unlock()
		if fn != nil {
			fn(peer, l.cfg.Node, m)
		} else {
			l.drop()
		}
	}
	close(stop)
	p.mu.Lock()
	if p.conn == r.c {
		p.conn = nil
	}
	p.mu.Unlock()
	r.c.Close()
	hb.Wait()
}

// write sends one frame on the peer's live connection under its write
// mutex and deadline; a dead or stalled session closes and errors.
func (p *peerConn) write(m protocol.Message, timeout time.Duration) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return fmt.Errorf("cluster: peer down")
	}
	err := writePeer(p.conn, m, timeout)
	if err != nil {
		p.conn.Close()
		p.conn = nil
	}
	return err
}

var _ Link = (*TCPLink)(nil)
