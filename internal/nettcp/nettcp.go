// Package nettcp carries the protocol over real TCP connections, turning
// the library into a deployable system: the same Server/ObjectAgent/
// QueryAgent state machines from internal/core run unchanged on both the
// metered simulation network and this transport.
//
// Wire format, per connection:
//
//	handshake (client → server, once):
//	    4 bytes magic "DKNN" | 1 byte version | 4 bytes client id (LE)
//	then, both directions, length-prefixed frames (AppendFrame, FrameReader):
//	    4 bytes payload length (LE) | payload = protocol.Encode(msg)
//
// Broadcast semantics: a wireless cell broadcast has no TCP equivalent,
// so the server fans the frame out to every connected client and lets
// the client-side state machines filter by the region carried in the
// message (probes and installs carry their regions; agents outside
// simply ignore them). Accounting still records one transmission per
// intersecting grid cell, exactly like the simulated medium, so traffic
// metrics are comparable.
package nettcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

var (
	magic = [4]byte{'D', 'K', 'N', 'N'}
	// version of the wire protocol.
	version byte = 1
)

// ErrBadHandshake reports a connection that did not start with the
// expected magic/version.
var ErrBadHandshake = errors.New("nettcp: bad handshake")

// Config tunes the server's liveness behavior. The zero value takes the
// defaults below.
type Config struct {
	// WriteTimeout bounds every frame write to one client. A connection
	// whose reader has stalled (full TCP window, dead peer behind a
	// half-open socket) fails the write at the deadline and is evicted,
	// instead of head-of-line-blocking every broadcast fan-out behind it.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds how long a fresh connection may take to
	// present its handshake bytes; a connection that sends nothing is
	// closed at the deadline instead of pinning its goroutine forever.
	HandshakeTimeout time.Duration
}

// Liveness defaults.
const (
	DefaultWriteTimeout     = 5 * time.Second
	DefaultHandshakeTimeout = 3 * time.Second
)

func (c Config) withDefaults() Config {
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = DefaultHandshakeTimeout
	}
	return c
}

// ---------------------------------------------------------------------------
// Framing

// maxFrame bounds a frame payload; anything larger is a protocol error.
// Generous, because query handoffs carry whole monitor state machines.
const maxFrame = 1 << 20

// AppendFrame appends m to dst as one wire frame, length prefix then
// payload. It is the only frame encoder: cluster.TCPLink's peer wire too.
func AppendFrame(dst []byte, m protocol.Message) []byte {
	at := len(dst)
	dst = protocol.Encode(append(dst, 0, 0, 0, 0), m)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// framePool recycles encode buffers, so a send allocates nothing. A buffer
// that one rare large frame grew past maxPooledFrame is not kept.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 4 << 10 // most frames are under 100 bytes

func getFrame(m protocol.Message) *[]byte {
	b := framePool.Get().(*[]byte)
	*b = AppendFrame((*b)[:0], m)
	return b
}

func putFrame(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		framePool.Put(b)
	}
}

// WriteFrame encodes m into a pooled buffer and sends it with one Write.
func WriteFrame(w io.Writer, m protocol.Message) error {
	b := getFrame(m)
	_, err := w.Write(*b)
	putFrame(b)
	return err
}

// FrameReader is the read cursor over one connection's inbound frames;
// buf[r:w] is read but not yet consumed. The owner embeds the buffer (4 to
// 65535 bytes, sized to its traffic) and passes it to every call: with one
// end per mobile client, every 100 bytes there is 6% of a server's heap.
type FrameReader struct{ r, w uint16 }

// Next returns the next frame's message. A frame that arrives in one
// segment costs one Read and is decoded straight out of buf (sound because
// protocol.Decode never aliases its input); one larger than buf, an
// allocation and a sized read. The stream's end is io.EOF between frames
// and io.ErrUnexpectedEOF inside one.
func (fr *FrameReader) Next(src io.Reader, buf []byte) (protocol.Message, error) {
	for {
		have := buf[fr.r:fr.w]
		if len(have) >= 4 {
			n := int(binary.LittleEndian.Uint32(have))
			if n == 0 || n > maxFrame {
				return nil, fmt.Errorf("nettcp: frame length %d out of range", n)
			}
			if len(have) >= 4+n {
				fr.r += uint16(4 + n)
				return protocol.Decode(have[4 : 4+n])
			}
			if 4+n > len(buf) {
				payload := make([]byte, n)
				k := copy(payload, have[4:])
				fr.r, fr.w = 0, 0
				if _, err := io.ReadFull(src, payload[k:]); err == io.EOF {
					return nil, io.ErrUnexpectedEOF
				} else if err != nil {
					return nil, err
				}
				return protocol.Decode(payload)
			}
		}
		// Incomplete: moved to the front, the rest is sure to fit.
		fr.r, fr.w = 0, uint16(copy(buf, have))
		n, err := src.Read(buf[fr.w:])
		fr.w += uint16(n)
		if n == 0 && err != nil {
			if err == io.EOF && fr.w > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// ---------------------------------------------------------------------------
// Server

// Server accepts client connections and bridges them to a
// transport.ServerHandler. Its Side() implements transport.ServerSide for
// the query-processing logic.
type Server struct {
	ln   net.Listener
	geom grid.Geometry
	cfg  Config

	mu      sync.Mutex
	conns   map[model.ObjectID]*serverConn
	pending map[net.Conn]struct{} // accepted, handshake not yet done
	targets []*serverConn         // broadcast snapshot of conns; nil after a change
	handler transport.ServerHandler
	metered metrics.Counters
	closed  bool

	wg sync.WaitGroup
}

type serverConn struct {
	c        net.Conn
	wm       sync.Mutex   // serializes frame writes
	lastSeen atomic.Int64 // unix nanos of the last frame read (or handshake)
	fr       FrameReader
	rbuf     [60]byte // uplinks are 41-61 bytes framed; see FrameReader
}

// Listen starts a server on addr ("host:port"; ":0" picks a free port)
// with default liveness settings. geom defines the broadcast cell layout
// used for traffic accounting.
func Listen(addr string, geom grid.Geometry) (*Server, error) {
	return ListenConfig(addr, geom, Config{})
}

// ListenConfig starts a server with explicit liveness settings.
func ListenConfig(addr string, geom grid.Geometry, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettcp: listen: %w", err)
	}
	return &Server{
		ln:      ln,
		geom:    geom,
		cfg:     cfg.withDefaults(),
		conns:   make(map[model.ObjectID]*serverConn),
		pending: make(map[net.Conn]struct{}),
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// AttachHandler installs the uplink consumer. It must be set before
// Serve.
func (s *Server) AttachHandler(h transport.ServerHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handler = h
}

// Counters returns a snapshot of the traffic counters.
func (s *Server) Counters() metrics.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metered.Snapshot()
}

// ClientCount returns the number of connected clients.
func (s *Server) ClientCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Serve accepts connections until Close. It returns nil after Close,
// other listener errors otherwise.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		s.mu.Lock()
		closed := s.closed
		if err == nil && closed {
			c.Close() // accepted as Close ran
		} else if err == nil {
			s.pending[c] = struct{}{} // so Close reaches it mid-handshake
			s.wg.Add(1)
			go s.serveConn(c)
		}
		s.mu.Unlock()
		if closed {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Close stops accepting, closes every connection — registered or still
// in its handshake — and waits for the per-connection readers to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for _, sc := range s.conns {
		sc.c.Close()
	}
	for c := range s.pending {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	id, err := s.handshake(c)
	s.mu.Lock()
	delete(s.pending, c)
	// Registering after Close swept the connections would leave this one
	// open, and Close waiting on its read loop, for as long as it liked.
	if err != nil || s.closed {
		// A connection that presented nothing until the deadline pinned
		// this goroutine for the whole timeout; meter the eviction so
		// operators can see dial-and-stall behavior (port scans, broken
		// clients) distinctly from protocol garbage.
		if isTimeout(err) {
			s.metered.RecordEviction()
		}
		s.mu.Unlock()
		c.Close()
		return
	}
	if old, ok := s.conns[id]; ok {
		old.c.Close() // a reconnect replaces the previous session
	}
	sc := &serverConn{c: c}
	sc.lastSeen.Store(time.Now().UnixNano())
	s.conns[id], s.targets = sc, nil
	ah := s.handler
	s.mu.Unlock()
	if a, ok := ah.(transport.AttachHandler); ok {
		a.HandleClientAttached(id)
	}

	defer func() {
		c.Close()
		s.mu.Lock()
		gone := false
		if s.conns[id] == sc {
			delete(s.conns, id)
			s.targets, gone = nil, true
		}
		h := s.handler
		s.mu.Unlock()
		// Notify only when the client has no live session left (a
		// reconnect replaces the old conn without a gone event).
		if gone {
			if dh, ok := h.(transport.DisconnectHandler); ok {
				dh.HandleClientGone(id)
			}
		}
	}()

	for {
		msg, err := sc.fr.Next(c, sc.rbuf[:])
		if err != nil {
			return
		}
		sc.lastSeen.Store(time.Now().UnixNano())
		s.mu.Lock()
		h := s.handler
		s.metered.RecordSend(metrics.Uplink, msg.Kind(), protocol.EncodedSize(msg))
		s.metered.RecordDeliver(metrics.Uplink)
		s.mu.Unlock()
		if h != nil {
			h.HandleUplink(id, msg)
		}
	}
}

// handshake reads the fixed 9-byte client hello under the handshake
// deadline, so a connection that sends nothing cannot pin its goroutine
// indefinitely. The deadline is cleared before returning; the steady
// state read loop has no read deadline (clients are legitimately silent
// for long stretches).
func (s *Server) handshake(c net.Conn) (model.ObjectID, error) {
	c.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	defer c.SetReadDeadline(time.Time{})
	var buf [9]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return 0, err
	}
	if [4]byte(buf[:4]) != magic || buf[4] != version {
		return 0, ErrBadHandshake
	}
	return model.ObjectID(binary.LittleEndian.Uint32(buf[5:9])), nil
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// ReapIdle closes every client connection whose last inbound frame is
// older than maxIdle, returning how many were evicted. The read loops
// observe the close and emit the usual ClientGone notifications, so the
// attached handler purges reaped clients exactly like disconnected ones.
// Deployments with legitimately silent clients should size maxIdle well
// above the protocol's reporting horizon, or not call this at all.
func (s *Server) ReapIdle(maxIdle time.Duration) int {
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	s.mu.Lock()
	var victims []*serverConn
	for _, sc := range s.conns {
		if sc.lastSeen.Load() < cutoff {
			victims = append(victims, sc)
		}
	}
	for range victims {
		s.metered.RecordEviction()
	}
	s.mu.Unlock()
	for _, sc := range victims {
		sc.c.Close()
	}
	return len(victims)
}

// Side returns the sending surface for the query-processing logic.
func (s *Server) Side() transport.ServerSide { return tcpServerSide{s} }

type tcpServerSide struct{ s *Server }

// Downlink implements transport.ServerSide.
func (t tcpServerSide) Downlink(to model.ObjectID, m protocol.Message) {
	s := t.s
	s.mu.Lock()
	sc, ok := s.conns[to]
	s.metered.RecordSend(metrics.Downlink, m.Kind(), protocol.EncodedSize(m))
	if !ok {
		s.metered.RecordDrop(metrics.Downlink)
	}
	s.mu.Unlock()
	if ok {
		s.fanout(metrics.Downlink, []*serverConn{sc}, m)
	}
}

// Broadcast implements transport.ServerSide: fan out to every client,
// accounting one transmission per intersecting cell (the wireless cost
// model shared with the simulation).
func (t tcpServerSide) Broadcast(region geo.Circle, m protocol.Message) {
	s := t.s
	cells := 0
	s.geom.VisitCellsIntersecting(region, func(grid.Cell) bool { cells++; return true })
	if cells == 0 {
		return
	}
	s.mu.Lock()
	size := protocol.EncodedSize(m)
	for i := 0; i < cells; i++ {
		s.metered.RecordSend(metrics.Broadcast, m.Kind(), size)
	}
	if s.targets == nil {
		s.targets = make([]*serverConn, 0, len(s.conns))
		for _, sc := range s.conns {
			s.targets = append(s.targets, sc)
		}
	}
	targets := s.targets // never written again: a change replaces it
	s.mu.Unlock()
	s.fanout(metrics.Broadcast, targets, m)
}

// fanout encodes m once, sends it to every target with one Write under
// the connection's write mutex and write deadline, and meters the outcome
// under one lock acquisition. A client whose reader has stalled (full TCP
// window) fails the write at the deadline; the connection is closed so the
// read loop exits and the normal gone path purges the client — without the
// deadline it would hold wm forever and block every fan-out behind it.
func (s *Server) fanout(d metrics.Direction, targets []*serverConn, m protocol.Message) {
	frame := getFrame(m)
	dropped, evicted := 0, 0
	for _, sc := range targets {
		sc.wm.Lock()
		sc.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		_, err := sc.c.Write(*frame)
		sc.c.SetWriteDeadline(time.Time{})
		sc.wm.Unlock()
		if err != nil {
			sc.c.Close()
			dropped++
			if isTimeout(err) {
				evicted++
			}
		}
	}
	putFrame(frame)
	s.mu.Lock()
	for i := len(targets) - dropped; i > 0; i-- {
		s.metered.RecordDeliver(d)
	}
	for ; dropped > 0; dropped-- {
		s.metered.RecordDrop(d)
	}
	for ; evicted > 0; evicted-- {
		s.metered.RecordEviction()
	}
	s.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Client

// Client is one mobile endpoint's connection to the server. Its Uplink
// method implements transport.ClientSide; received frames are dispatched
// to the handler from a dedicated goroutine.
type Client struct {
	c    net.Conn
	wm   sync.Mutex
	fr   FrameReader
	rbuf [92]byte // installs are 87 bytes framed; see FrameReader

	mu     sync.Mutex
	closed bool
	err    error
	done   chan struct{}
}

// Dial connects to the server at addr, performs the handshake, and
// starts dispatching received messages to h.
func Dial(addr string, id model.ObjectID, h transport.ClientHandler) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("nettcp: dial: %w", err)
	}
	var buf [9]byte
	copy(buf[:4], magic[:])
	buf[4] = version
	binary.LittleEndian.PutUint32(buf[5:9], uint32(id))
	if _, err := c.Write(buf[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("nettcp: handshake: %w", err)
	}
	cl := &Client{c: c, done: make(chan struct{})}
	go cl.readLoop(h)
	return cl, nil
}

func (cl *Client) readLoop(h transport.ClientHandler) {
	defer close(cl.done)
	for {
		msg, err := cl.fr.Next(cl.c, cl.rbuf[:])
		if err != nil {
			cl.mu.Lock()
			if !cl.closed {
				cl.err = err
			}
			cl.mu.Unlock()
			return
		}
		if h != nil {
			h.HandleServerMessage(msg)
		}
	}
}

// Uplink implements transport.ClientSide. Write errors latch into Err and
// close the connection; the protocol state machines tolerate loss, so the
// send surface stays error-free.
func (cl *Client) Uplink(m protocol.Message) {
	cl.wm.Lock()
	err := WriteFrame(cl.c, m)
	cl.wm.Unlock()
	if err != nil {
		cl.mu.Lock()
		if !cl.closed && cl.err == nil {
			cl.err = err
		}
		cl.mu.Unlock()
		cl.c.Close()
	}
}

// Done is closed when the read loop exits — after the server closed the
// connection, a transport error, or Close. Reconnect loops select on it.
func (cl *Client) Done() <-chan struct{} { return cl.done }

// Err returns the first transport error observed, if any.
func (cl *Client) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.err
}

// Close shuts the connection down and waits for the read loop to exit.
func (cl *Client) Close() error {
	cl.mu.Lock()
	cl.closed = true
	cl.mu.Unlock()
	err := cl.c.Close()
	<-cl.done
	return err
}

var _ transport.ClientSide = (*Client)(nil)
