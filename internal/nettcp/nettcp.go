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
//
// Sending never touches a socket: Downlink and Broadcast meter the send,
// encode the frame once and queue it, and one sender goroutine per
// Server writes what is queued, each connection's frames in send order
// with one writev. The query-processing logic calls the send surface
// under its own lock; a slow or stalled client therefore delays other
// clients' frames by at most one WriteTimeout, and never that lock.
package nettcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmknn/internal/container"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

var (
	magic = [4]byte{'D', 'K', 'N', 'N'}
	// version of the wire protocol: 2 added the velocity of enter and move
	// reports, 3 retired the leave-report, 4 dropped the probe request's
	// tick and the answer resync's sequence and tick, 5 the probe reply's
	// tick. An older peer is refused at the handshake instead of failing
	// mid-session.
	version byte = 5
)

// ErrBadHandshake reports a connection that did not start with the
// expected magic/version.
var ErrBadHandshake = errors.New("nettcp: bad handshake")

// Config tunes the server's liveness behavior. The zero value takes the
// defaults below.
type Config struct {
	// WriteTimeout bounds every write to one client. A connection whose
	// reader has stalled (full TCP window, dead peer behind a half-open
	// socket) fails the write at the deadline and is evicted, instead of
	// head-of-line-blocking every other client's frames behind it.
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

	// The send queue, in call order, and the sender's previous batch,
	// emptied, to swap in when the sender takes the queue.
	queue, spare []outFrame
	busy         bool      // the sender holds a batch it has not metered
	work         sync.Cond // on mu: the queue grew, or Close began
	idle         sync.Cond // on mu: the queue is empty and busy is false

	wg sync.WaitGroup // the sender and the per-connection readers
}

type serverConn struct {
	c        net.Conn
	lastSeen atomic.Int64 // unix nanos of the last frame read (or handshake)
	in       uint64       // the sender's: which of a batch's snapshots hold this connection
	fr       FrameReader
	rbuf     [60]byte // uplinks are 41-61 bytes framed; see FrameReader
}

// outFrame is one queued send: a downlink's frame and its connection, or
// a broadcast's frame and the snapshot of conns it goes to.
type outFrame struct {
	frame   *[]byte
	to      *serverConn
	targets []*serverConn
	d       metrics.Direction
	snap    uint8 // the sender's: the index of targets among the batch's snapshots
}

// goesTo reports whether f is bound for sc, once the sender has marked
// the batch's recipients.
func (f *outFrame) goesTo(sc *serverConn) bool {
	if f.to != nil {
		return f.to == sc
	}
	return sc.in>>f.snap&1 != 0
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
	s := &Server{
		ln:      ln,
		geom:    geom,
		cfg:     cfg.withDefaults(),
		conns:   make(map[model.ObjectID]*serverConn),
		pending: make(map[net.Conn]struct{}),
	}
	s.work.L, s.idle.L = &s.mu, &s.mu
	s.wg.Add(1)
	go s.send()
	return s, nil
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

// Close stops accepting, writes what was queued before it (each write
// still bounded by WriteTimeout), closes every connection — registered
// or still in its handshake — and waits for the sender and the
// per-connection readers to finish. A send after Close is dropped.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.work.Signal()
	s.awaitSent()
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
	frame := getFrame(m)
	s.mu.Lock()
	s.metered.RecordSend(metrics.Downlink, m.Kind(), len(*frame)-4)
	sc, ok := s.conns[to]
	if !ok {
		s.metered.RecordDrop(metrics.Downlink)
	}
	queued := ok && s.push(outFrame{frame: frame, to: sc, d: metrics.Downlink}, 1)
	s.mu.Unlock()
	if !queued {
		putFrame(frame)
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
	frame := getFrame(m)
	s.mu.Lock()
	s.metered.RecordSendN(metrics.Broadcast, m.Kind(), len(*frame)-4, cells)
	if s.targets == nil {
		s.targets = make([]*serverConn, 0, len(s.conns))
		for _, sc := range s.conns {
			s.targets = append(s.targets, sc)
		}
	}
	// The snapshot is never written again (a change replaces it), so the
	// queue may hold it.
	queued := s.push(outFrame{frame: frame, targets: s.targets, d: metrics.Broadcast}, len(s.targets))
	s.mu.Unlock()
	if !queued {
		putFrame(frame)
	}
}

// push queues f, bound for n connections, and wakes the sender; once
// Close has begun it meters f dropped for each of them instead. It
// reports whether the sender took the frame. The caller holds s.mu.
func (s *Server) push(f outFrame, n int) bool {
	if s.closed {
		for ; n > 0; n-- {
			s.metered.RecordDrop(f.d)
		}
		return false
	}
	if n == 0 {
		return false
	}
	s.queue = append(s.queue, f)
	s.work.Signal()
	return true
}

// awaitSent waits until the sender has written and metered everything
// queued. The caller holds s.mu.
func (s *Server) awaitSent() {
	for len(s.queue) > 0 || s.busy {
		s.idle.Wait()
	}
}

// send is the sender goroutine. It takes the whole queue as one batch,
// writes it, meters what it wrote and repeats; it returns once Close has
// begun and the queue is empty.
func (s *Server) send() {
	defer s.wg.Done()
	var w sender
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 {
			s.busy = false
			s.idle.Broadcast()
			if s.closed {
				return
			}
			s.work.Wait()
		}
		batch := s.queue
		s.queue, s.busy = s.spare, true
		s.mu.Unlock()
		out := w.write(batch, s.cfg.WriteTimeout)
		for i := range batch {
			putFrame(batch[i].frame)
		}
		clear(batch)
		s.mu.Lock()
		out.meter(&s.metered)
		s.spare = batch[:0]
		w.win.Observe(len(batch))
		if keep, due := w.win.EndRound(); due {
			s.queue, s.spare = container.Trim(s.queue, keep), container.Trim(s.spare, keep)
			w.run = container.Trim(w.run[:0], keep)
		}
	}
}

// Bits 0 to maxSnaps-1 of serverConn.in say which of a batch's snapshots
// hold the connection; bit maxSnaps, listed, that the sender has listed it.
const (
	maxSnaps = 63
	listed   = 1 << maxSnaps
)

// sender is the sender goroutine's scratch; nothing else touches it.
type sender struct {
	snaps [][]*serverConn // a batch's distinct broadcast snapshots
	dirty []*serverConn   // a batch's recipients, in order of first send
	// run is one connection's frames in send order. bufs is the header a
	// writev consumes, kept here so that handing it to the connection
	// does not allocate one per write.
	run, bufs net.Buffers
	// Each batch is one round of the container window rule; its entries
	// are what the queue and run need room for.
	win container.Window
}

// tally is a batch's outcome, metered under one acquisition of s.mu.
type tally struct {
	delivered, dropped [metrics.Broadcast + 1]int
	evicted            int
}

// write sends batch: each connection's frames, in send order, with one
// writev under one write deadline.
func (w *sender) write(batch []outFrame, timeout time.Duration) (t tally) {
	for len(batch) > 0 {
		n := w.mark(batch)
		for _, sc := range w.dirty {
			w.writeRun(sc, batch[:n], timeout, &t)
			sc.in = 0
		}
		clear(w.snaps)
		clear(w.dirty)
		w.snaps, w.dirty = w.snaps[:0], w.dirty[:0]
		batch = batch[n:]
	}
	return t
}

// mark lists the recipients of a prefix of batch in dirty, sets their
// snapshot bits, and returns the prefix's length: all of batch, unless it
// holds more than maxSnaps distinct snapshots.
func (w *sender) mark(batch []outFrame) int {
	for i := range batch {
		f := &batch[i]
		if f.to != nil {
			w.list(f.to, 0)
			continue
		}
		k := slices.IndexFunc(w.snaps, func(t []*serverConn) bool { return &t[0] == &f.targets[0] })
		if k < 0 {
			if k = len(w.snaps); k == maxSnaps {
				return i
			}
			w.snaps = append(w.snaps, f.targets)
			for _, sc := range f.targets {
				w.list(sc, 1<<k)
			}
		}
		f.snap = uint8(k)
	}
	return len(batch)
}

func (w *sender) list(sc *serverConn, bits uint64) {
	if sc.in == 0 {
		w.dirty = append(w.dirty, sc)
	}
	sc.in |= bits | listed
}

// writeRun writes sc's frames of batch with one writev. A frame is
// delivered only if all its bytes were written. A connection whose write
// fails is closed, so its read loop exits and the normal gone path purges
// the client; without the deadline a stalled reader would block the
// sender forever.
func (w *sender) writeRun(sc *serverConn, batch []outFrame, timeout time.Duration, t *tally) {
	w.run = w.run[:0]
	for i := range batch {
		if batch[i].goesTo(sc) {
			w.run = append(w.run, *batch[i].frame)
		}
	}
	w.bufs = w.run
	sc.c.SetWriteDeadline(time.Now().Add(timeout))
	left, err := w.bufs.WriteTo(sc.c)
	clear(w.run)
	for i := range batch {
		f := &batch[i]
		if !f.goesTo(sc) {
			continue
		}
		if size := int64(len(*f.frame)); left >= size {
			left -= size
			t.delivered[f.d]++
		} else {
			left = 0
			t.dropped[f.d]++
		}
	}
	if err != nil {
		sc.c.Close()
		if isTimeout(err) {
			t.evicted++
		}
	}
}

// meter records t in c; the caller holds the lock that guards c.
func (t *tally) meter(c *metrics.Counters) {
	for d := range t.delivered {
		for n := t.delivered[d]; n > 0; n-- {
			c.RecordDeliver(metrics.Direction(d))
		}
		for n := t.dropped[d]; n > 0; n-- {
			c.RecordDrop(metrics.Direction(d))
		}
	}
	for n := t.evicted; n > 0; n-- {
		c.RecordEviction()
	}
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
