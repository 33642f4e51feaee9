package nettcp

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dmknn/internal/geo"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/transport"
)

// flush waits until the sender has written and metered every frame
// queued before the call.
func (s *Server) flush() {
	s.mu.Lock()
	s.awaitSent()
	s.mu.Unlock()
}

// describe names a received frame by kind and the fields the tests set.
func describe(m protocol.Message) string {
	switch v := m.(type) {
	case protocol.MonitorCancel:
		return fmt.Sprintf("cancel %d/%d", v.Query, v.Epoch)
	case protocol.AnswerUpdate:
		return fmt.Sprintf("answer %d", v.Query)
	}
	return fmt.Sprintf("%T", m)
}

// Queued sends reach a client in call order, whatever batches the sender
// takes them in, and each is metered in its own direction once written.
func TestSendOrderAndMetering(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(&collector{})
	target, other := &clientCollector{}, &clientCollector{}
	for id, h := range map[model.ObjectID]*clientCollector{1: target, 2: other} {
		cl, err := Dial(s.Addr().String(), id, h)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
	}
	waitFor(t, "both clients registered", func() bool { return s.ClientCount() == 2 })

	const rounds, conns = 50, 2
	region := geo.Circle{Center: geo.Pt(500, 500), R: 50}
	var want []string
	for i := 0; i < rounds; i++ {
		q := model.QueryID(i)
		s.Side().Broadcast(region, protocol.MonitorCancel{Query: q, Epoch: 1})
		s.Side().Downlink(1, protocol.AnswerUpdate{Query: q})
		s.Side().Broadcast(region, protocol.MonitorCancel{Query: q, Epoch: 2})
		want = append(want, describe(protocol.MonitorCancel{Query: q, Epoch: 1}),
			describe(protocol.AnswerUpdate{Query: q}), describe(protocol.MonitorCancel{Query: q, Epoch: 2}))
	}
	s.flush()
	cnt := s.Counters()
	if got := cnt.Delivered(metrics.Downlink); got != rounds {
		t.Errorf("Delivered(Downlink) = %d, want %d", got, rounds)
	}
	if got := cnt.Delivered(metrics.Broadcast); got != 2*rounds*conns {
		t.Errorf("Delivered(Broadcast) = %d, want %d", got, 2*rounds*conns)
	}
	for _, d := range metrics.Directions() {
		if n := cnt.Dropped(d); n != 0 {
			t.Errorf("Dropped(%v) = %d", d, n)
		}
	}

	waitFor(t, "every frame", func() bool { return target.count() == 3*rounds && other.count() == 2*rounds })
	target.mu.Lock()
	defer target.mu.Unlock()
	for i, m := range target.msgs {
		if got := describe(m); got != want[i] {
			t.Fatalf("frame %d = %s, want %s", i, got, want[i])
		}
	}
}

// One batch writes each connection exactly the frames bound for it, in
// send order, also when it holds more distinct broadcast snapshots than
// the sender marks at once.
func TestSenderRunsFollowSendOrder(t *testing.T) {
	const conns, sends = 3, 200
	scs := make([]*serverConn, conns)
	got, want := make([][]string, conns), make([][]string, conns)
	var wg sync.WaitGroup
	for j := range scs {
		srv, cli := net.Pipe()
		scs[j] = &serverConn{c: srv}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fr FrameReader
			buf := make([]byte, 64)
			for {
				m, err := fr.Next(cli, buf)
				if err != nil {
					return
				}
				got[j] = append(got[j], describe(m))
			}
		}()
	}
	var batch []outFrame
	for i := 0; i < sends; i++ {
		m := protocol.MonitorCancel{Query: model.QueryID(i), Epoch: 1}
		if i%5 == 4 {
			to := i % conns
			batch = append(batch, outFrame{frame: getFrame(m), to: scs[to], d: metrics.Downlink})
			want[to] = append(want[to], describe(m))
			continue
		}
		var snap []*serverConn // a fresh snapshot per broadcast, as after every connect
		for j, sc := range scs {
			if (i+j)%3 != 0 {
				snap = append(snap, sc)
				want[j] = append(want[j], describe(m))
			}
		}
		batch = append(batch, outFrame{frame: getFrame(m), targets: snap, d: metrics.Broadcast})
	}

	var w sender
	out := w.write(batch, time.Second)
	for _, sc := range scs {
		sc.c.Close()
	}
	wg.Wait()
	for j := range scs {
		if !slices.Equal(got[j], want[j]) {
			t.Errorf("connection %d received %d frames, want %d in send order:\n got  %v\n want %v", j, len(got[j]), len(want[j]), got[j], want[j])
		}
	}
	if d, b := out.delivered[metrics.Downlink], out.delivered[metrics.Broadcast]; d != sends/5 || b != 2*(sends-sends/5) {
		t.Errorf("delivered %d downlinks and %d broadcast frames, want %d and %d", d, b, sends/5, 2*(sends-sends/5))
	}
	if out.dropped != [metrics.Broadcast + 1]int{} || out.evicted != 0 {
		t.Errorf("dropped %v, evicted %d", out.dropped, out.evicted)
	}
}

// A stalled reader holds up the sender, never the caller of Broadcast: a
// handler lock held across the broadcasts is free again at once, so an
// uplink that needs it is handled without waiting for the write deadline.
func TestSendRunsOutsideCallersLock(t *testing.T) {
	s := startServerCfg(t, Config{WriteTimeout: 2 * time.Second})
	var mu sync.Mutex
	handled := make(chan struct{}, 1)
	s.AttachHandler(transport.ServerHandlerFunc(func(model.ObjectID, protocol.Message) {
		mu.Lock()
		mu.Unlock()
		select {
		case handled <- struct{}{}:
		default:
		}
	}))

	stalled := rawHandshake(t, s.Addr().String(), 13)
	defer stalled.Close()
	if tc, ok := stalled.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
	}
	healthy, err := Dial(s.Addr().String(), 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	waitFor(t, "both connected", func() bool { return s.ClientCount() == 2 })

	// 9 MB: more than the stalled connection's socket buffers hold.
	big := protocol.NodeRedirect{Node: 1, Addr: strings.Repeat("x", 60_000)}
	region := geo.Circle{Center: geo.Pt(500, 500), R: 50}
	start := time.Now()
	mu.Lock()
	for i := 0; i < 150; i++ {
		s.Side().Broadcast(region, big)
	}
	mu.Unlock()
	healthy.Uplink(protocol.QueryDeregister{Query: 1})
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("uplink never handled")
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("uplink handled %v after the broadcasts began, want under 200ms", d)
	}
}

// Close writes what was queued before it; a send after Close is metered
// as dropped and queues nothing.
func TestCloseWritesQueued(t *testing.T) {
	s := startServer(t)
	s.AttachHandler(&collector{})
	got := &clientCollector{}
	cl, err := Dial(s.Addr().String(), 1, got)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	waitFor(t, "registered", func() bool { return s.ClientCount() == 1 })

	const n = 200
	region := geo.Circle{Center: geo.Pt(500, 500), R: 50}
	for i := 0; i < n; i++ {
		s.Side().Broadcast(region, protocol.MonitorCancel{Query: model.QueryID(i), Epoch: 1})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every queued frame", func() bool { return got.count() == n })
	before := s.Counters()
	if d := before.Delivered(metrics.Broadcast); d != n {
		t.Errorf("Delivered(Broadcast) = %d, want %d", d, n)
	}

	s.Side().Downlink(1, protocol.AnswerUpdate{Query: 1})
	s.Side().Broadcast(region, protocol.MonitorCancel{Query: 1, Epoch: 2})
	after := s.Counters()
	d := after.Diff(before)
	if d.Sent(metrics.Downlink) != 1 || d.Dropped(metrics.Downlink) != 1 {
		t.Errorf("downlink after Close: sent %d, dropped %d; want 1, 1", d.Sent(metrics.Downlink), d.Dropped(metrics.Downlink))
	}
	if d.Delivered(metrics.Downlink)+d.Delivered(metrics.Broadcast) != 0 {
		t.Error("a send after Close was delivered")
	}
	s.mu.Lock()
	queued := len(s.queue)
	s.mu.Unlock()
	if queued != 0 {
		t.Errorf("%d frame(s) queued after Close", queued)
	}
}
