package nettcp

import (
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

func startServerCfg(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := ListenConfig("127.0.0.1:0", testGeom(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() { s.Close() })
	return s
}

// goneCounter counts every ClientGone event (goneRec only records the
// latest id, which can't distinguish zero events from one).
type goneCounter struct {
	collector
	gone atomic.Int64
}

func (g *goneCounter) HandleClientGone(model.ObjectID) { g.gone.Add(1) }

// rawHandshake dials the server without the Client wrapper so the test
// fully controls when (whether) the connection reads.
func rawHandshake(t testing.TB, addr string, id model.ObjectID) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := binary.LittleEndian.AppendUint32([]byte{'D', 'K', 'N', 'N', version}, uint32(id))
	if _, err := c.Write(hello); err != nil {
		t.Fatal(err)
	}
	return c
}

func waitForLong(t *testing.T, d time.Duration, what string, cond func() bool) {
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

// Regression test for the head-of-line-blocking write path: a client
// that handshakes and then never reads fills its TCP window; before the
// write deadline existed, the next broadcast to it blocked forever while
// holding the connection's write mutex, stalling the whole fan-out. With
// the fix the write fails at the deadline, the stalled client is evicted
// as a ClientGone, and healthy clients keep receiving.
func TestStalledReaderEvictedNotBlocking(t *testing.T) {
	s := startServerCfg(t, Config{WriteTimeout: 300 * time.Millisecond})
	rec := &goneCounter{}
	s.AttachHandler(rec)

	stalled := rawHandshake(t, s.Addr().String(), 13)
	defer stalled.Close()
	// Shrink the stalled side's receive buffer so its window fills after
	// a handful of frames instead of megabytes of kernel autotuning.
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	healthy := &clientCollector{}
	cl, err := Dial(s.Addr().String(), 14, healthy)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "both connected", func() bool { return s.ClientCount() == 2 })

	// Large frames fill the stalled connection's socket buffers in a few
	// writes regardless of the kernel's defaults.
	big := protocol.NodeRedirect{Node: 1, Addr: strings.Repeat("x", 60_000)}
	region := geo.Circle{Center: geo.Pt(500, 500), R: 50}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Each blocked write costs at most one WriteTimeout; after the
		// eviction the remaining broadcasts flow freely. Pre-fix, the
		// first blocked write never returns and this goroutine hangs.
		for i := 0; i < 400 && s.ClientCount() == 2; i++ {
			s.Side().Broadcast(region, big)
		}
	}()

	waitForLong(t, 20*time.Second, "stalled client evicted", func() bool {
		return s.ClientCount() == 1 && rec.gone.Load() == 1
	})
	<-done
	cnt := s.Counters()
	if cnt.Evictions() == 0 {
		t.Error("eviction not metered")
	}

	// The fan-out is unblocked: the healthy client still receives.
	before := healthy.count()
	s.Side().Broadcast(region, protocol.MonitorCancel{Query: 3, Epoch: 1})
	waitFor(t, "healthy client still served", func() bool { return healthy.count() > before })
}

// A connection that presents no handshake bytes is cut at the handshake
// deadline — and the eviction is metered — instead of pinning its serve
// goroutine forever.
func TestHandshakeTimeout(t *testing.T) {
	s := startServerCfg(t, Config{HandshakeTimeout: 100 * time.Millisecond})
	s.AttachHandler(&collector{})
	c, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send nothing. The server must close the connection at the deadline.
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("server kept a silent connection open past the handshake deadline")
	}
	waitFor(t, "eviction metered", func() bool {
		cnt := s.Counters()
		return cnt.Evictions() == 1
	})
	if s.ClientCount() != 0 {
		t.Fatal("silent connection registered as client")
	}
}

// The reconnect-replaces-session path (serveConn closes the old conn on
// a duplicate id): the replaced session must emit no spurious gone event,
// and frames sent after the replacement must reach only the new session —
// never interleave onto the old connection.
func TestReconnectReplacementIsolation(t *testing.T) {
	s := startServer(t)
	rec := &goneCounter{}
	s.AttachHandler(rec)

	old := rawHandshake(t, s.Addr().String(), 21)
	defer old.Close()
	waitFor(t, "first session", func() bool { return s.ClientCount() == 1 })

	repl := &clientCollector{}
	cl, err := Dial(s.Addr().String(), 21, repl)
	if err != nil {
		t.Fatal(err)
	}
	// The replacement closes the old conn server-side; its read observes
	// EOF without any frames, and — critically — no gone event fires, so
	// a handler never purges the still-live client state.
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := old.Read(make([]byte, 4)); err == nil {
		t.Fatalf("old session received %d bytes after replacement", n)
	}
	waitFor(t, "exactly one session", func() bool { return s.ClientCount() == 1 })
	if g := rec.gone.Load(); g != 0 {
		t.Fatalf("replacement emitted %d spurious gone event(s)", g)
	}

	// Post-replacement downlinks land on the new session, in order.
	for i := 1; i <= 3; i++ {
		s.Side().Downlink(21, protocol.AnswerUpdate{Query: model.QueryID(i), At: model.Tick(i)})
	}
	waitFor(t, "new session frames", func() bool { return repl.count() == 3 })
	repl.mu.Lock()
	for i, m := range repl.msgs {
		if au, ok := m.(protocol.AnswerUpdate); !ok || au.Query != model.QueryID(i+1) {
			t.Errorf("frame %d = %#v, want AnswerUpdate{Query:%d}", i, m, i+1)
		}
	}
	repl.mu.Unlock()

	// A real disconnect of the live session still notifies.
	cl.Close()
	waitFor(t, "real gone event", func() bool { return rec.gone.Load() == 1 })
}

// ReapIdle evicts connections with no inbound traffic past the idle
// bound, via the normal gone path, and meters the evictions.
func TestReapIdle(t *testing.T) {
	s := startServer(t)
	rec := &goneCounter{}
	s.AttachHandler(rec)

	idle, err := Dial(s.Addr().String(), 31, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	busy, err := Dial(s.Addr().String(), 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	waitFor(t, "both connected", func() bool { return s.ClientCount() == 2 })

	time.Sleep(60 * time.Millisecond)
	busy.Uplink(protocol.QueryDeregister{Query: 1})
	waitFor(t, "busy uplink seen", func() bool { return rec.count() == 1 })

	if n := s.ReapIdle(40 * time.Millisecond); n != 1 {
		t.Fatalf("ReapIdle = %d, want 1", n)
	}
	waitFor(t, "idle client gone", func() bool {
		return s.ClientCount() == 1 && rec.gone.Load() == 1
	})
	cnt := s.Counters()
	if got := cnt.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// The idle client's read loop observed the close.
	select {
	case <-idle.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("reaped client's read loop never exited")
	}
}

// closing runs s.Close beside the test; the channel closes when it returns.
func closing(s *Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	return done
}

// returnsWithin fails the test unless the Close behind done returns within d.
func returnsWithin(t *testing.T, done <-chan struct{}, d time.Duration) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("Close still blocked after %v", d)
	}
}

// Close reaches a connection that is still in its handshake: it does not
// wait out the handshake deadline, and a connection cut by shutdown is
// not metered as a dial-and-stall eviction.
func TestCloseDuringHandshake(t *testing.T) {
	s := startServerCfg(t, Config{HandshakeTimeout: 2 * time.Second})
	silent, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// Accepts are in dial order: once a later connection has registered,
	// the silent one is in its handshake read.
	later := rawHandshake(t, s.Addr().String(), 41)
	defer later.Close()
	waitFor(t, "later connection registered", func() bool { return s.ClientCount() == 1 })

	returnsWithin(t, closing(s), time.Second)
	if cnt := s.Counters(); cnt.Evictions() != 0 {
		t.Errorf("shutdown metered %d eviction(s)", cnt.Evictions())
	}
}

// A handshake that arrives after Close swept the connections must not
// register: no one would ever close that connection, and Close would
// wait on its read loop for as long as the client stayed connected.
func TestCloseRefusesLateHandshake(t *testing.T) {
	s := startServerCfg(t, Config{})
	late, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	later := rawHandshake(t, s.Addr().String(), 42)
	defer later.Close()
	waitFor(t, "later connection registered", func() bool { return s.ClientCount() == 1 })

	closed := closing(s)
	// The listener closes after the sweep: a refused dial means the sweep
	// is over, so the hello below arrives too late by construction.
	waitFor(t, "listener closed", func() bool {
		c, err := net.Dial("tcp", s.Addr().String())
		if err == nil {
			c.Close()
		}
		return err != nil
	})
	late.Write([]byte{'D', 'K', 'N', 'N', version, 43, 0, 0, 0}) // may fail: already cut
	returnsWithin(t, closed, time.Second)
	if n := s.ClientCount(); n != 0 {
		t.Errorf("%d client(s) registered on a closed server", n)
	}
}

// The same refusal when the handshake read had already completed as
// Close swept (the connection in neither table at that instant), driven
// directly: a hello presented to a closed server's serveConn.
func TestCloseRefusesRegistration(t *testing.T) {
	s := startServerCfg(t, Config{})
	s.Close()
	srv, cli := net.Pipe()
	defer cli.Close()
	s.wg.Add(1)
	go s.serveConn(srv)
	if _, err := cli.Write([]byte{'D', 'K', 'N', 'N', version, 44, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := cli.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read from a connection refused at registration: %v, want EOF", err)
	}
	if n := s.ClientCount(); n != 0 {
		t.Errorf("%d client(s) registered on a closed server", n)
	}
	returnsWithin(t, closing(s), time.Second)
}
