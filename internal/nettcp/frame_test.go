package nettcp

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// readFrameRef is the frame decoder the connections used before
// FrameReader — two ReadFulls and a fresh payload buffer per frame —
// kept as the oracle FrameReader is tested against.
func readFrameRef(r io.Reader) (protocol.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("nettcp: frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return protocol.Decode(payload)
}

// drain reads frames until the first error and returns the accepted
// messages re-encoded (bytes, not structs: NaN != NaN) and that error.
func drain(next func() (protocol.Message, error)) (frames [][]byte, err error) {
	for {
		m, err := next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, AppendFrame(nil, m))
	}
}

// checkAgainstRef feeds stream to FrameReader (bufSize-byte buffer) under
// every delivery pattern and requires the oracle's verdict each time: the
// same messages accepted in the same order, the stream rejected (or
// ended) at the same frame.
func checkAgainstRef(t *testing.T, stream []byte, bufSize int) {
	t.Helper()
	ref := bytes.NewReader(stream)
	want, _ := drain(func() (protocol.Message, error) { return readFrameRef(ref) })
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"whole":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"dataerr": iotest.DataErrReader,
	} {
		src, buf, fr := wrap(bytes.NewReader(stream)), make([]byte, bufSize), FrameReader{}
		got, err := drain(func() (protocol.Message, error) { return fr.Next(src, buf) })
		if len(got) != len(want) {
			t.Fatalf("%s, buffer %d: accepted %d frames then %v, oracle accepted %d\nstream %x",
				name, bufSize, len(got), err, len(want), stream)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s, buffer %d: frame %d\n got %x\nwant %x", name, bufSize, i, got[i], want[i])
			}
		}
	}
}

// sized returns a message whose frame is exactly n bytes long.
func sized(tb testing.TB, n int) protocol.Message {
	tb.Helper()
	empty := len(AppendFrame(nil, protocol.NodeRedirect{}))
	m := protocol.NodeRedirect{Node: 1, Addr: strings.Repeat("a", n-empty)}
	if got := len(AppendFrame(nil, m)); got != n {
		tb.Fatalf("sized(%d) framed to %d bytes", n, got)
	}
	return m
}

func randomMessage(rng *rand.Rand) protocol.Message {
	pt := func() geo.Point { return geo.Pt(rng.Float64()*1000, rng.Float64()*1000) }
	rep := protocol.MemberReport{Query: model.QueryID(rng.Uint32()), Epoch: rng.Uint32(),
		Object: model.ObjectID(rng.Uint32()), Pos: pt(), At: model.Tick(rng.Int63())}
	switch rng.Intn(6) {
	case 0:
		return protocol.MoveReport{MemberReport: rep}
	case 1:
		return protocol.QueryRegister{Query: rep.Query, K: rng.Uint32(), Pos: pt(), At: rep.At}
	case 2:
		nb := make([]model.Neighbor, rng.Intn(8))
		for i := range nb {
			nb[i] = model.Neighbor{ID: model.ObjectID(rng.Uint32()), Dist: rng.Float64()}
		}
		return protocol.AnswerUpdate{Query: rep.Query, Seq: rng.Uint32(), QPos: pt(), Neighbors: nb}
	case 3:
		return protocol.MonitorInstall{Query: rep.Query,
			Epoch: rep.Epoch, QueryPos: pt(), AnswerRadius: 10, Radius: 20}
	case 4:
		return protocol.NodeRelay{Origin: rep.Object, Hops: 1, Inner: protocol.EnterReport{MemberReport: rep}}
	default:
		return protocol.NodeRedirect{Addr: strings.Repeat("r", rng.Intn(300))}
	}
}

// FrameReader against the oracle: random message sequences salted with
// frames exactly at, one under and one over the buffer size, cut at every
// byte, under every delivery pattern.
func TestFrameReaderMatchesReference(t *testing.T) {
	const bufSize = 60
	rng := rand.New(rand.NewSource(21))
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		var stream []byte
		for i := rng.Intn(6); i >= 0; i-- {
			stream = AppendFrame(stream, randomMessage(rng))
		}
		for _, n := range []int{bufSize - 1, bufSize, bufSize + 1} {
			stream = AppendFrame(stream, sized(t, n))
			stream = AppendFrame(stream, randomMessage(rng))
		}
		for cut := 0; cut <= len(stream); cut++ {
			checkAgainstRef(t, stream[:cut], bufSize)
		}
	}
	// The same streams whole through the other buffer sizes in use.
	var stream []byte
	for i := 0; i < 200; i++ {
		stream = AppendFrame(stream, randomMessage(rng))
	}
	for _, size := range []int{4, 92, 4096} {
		checkAgainstRef(t, stream, size)
	}
}

// The end of the stream is io.EOF exactly at a frame boundary and
// io.ErrUnexpectedEOF anywhere inside a frame, header included, whether
// the frame fits the buffer or takes the sized read.
func TestFrameReaderEOF(t *testing.T) {
	stream := AppendFrame(nil, protocol.QueryDeregister{Query: 1})
	boundary := map[int]bool{0: true, len(stream): true}
	stream = AppendFrame(stream, sized(t, 100))
	boundary[len(stream)] = true
	for cut := 0; cut <= len(stream); cut++ {
		for name, src := range map[string]io.Reader{
			"whole":   bytes.NewReader(stream[:cut]),
			"dataerr": iotest.DataErrReader(bytes.NewReader(stream[:cut])),
		} {
			fr, buf := FrameReader{}, make([]byte, 60)
			_, err := drain(func() (protocol.Message, error) { return fr.Next(src, buf) })
			if want := map[bool]error{true: io.EOF, false: io.ErrUnexpectedEOF}[boundary[cut]]; err != want {
				t.Errorf("%s, cut at %d of %d: err = %v, want %v", name, cut, len(stream), err, want)
			}
		}
	}
}

// The length checks: the largest legal frame is read, zero and
// over-limit lengths are rejected wherever they sit in the stream.
func TestFrameReaderLengthLimits(t *testing.T) {
	// maxFrame payload bytes; Decode rejects the content (an address is at
	// most 64 KiB) but the frame itself must be read to its last byte.
	big := make([]byte, 4+maxFrame)
	binary.LittleEndian.PutUint32(big, maxFrame)
	big[4] = byte(protocol.KindNodeRedirect)
	lead := AppendFrame(nil, protocol.QueryDeregister{Query: 1})
	for _, bad := range [][]byte{
		{0, 0, 0, 0},
		binary.LittleEndian.AppendUint32(nil, maxFrame+1),
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		big,
		big[:len(big)-1],
	} {
		checkAgainstRef(t, bad, 60)
		checkAgainstRef(t, append(bytes.Clone(lead), bad...), 60)
	}
	src := bytes.NewReader(append(big, lead...))
	fr, buf := FrameReader{}, make([]byte, 60)
	if _, err := fr.Next(src, buf); err == nil {
		t.Fatal("undecodable maxFrame payload accepted")
	}
	if m, err := fr.Next(src, buf); err != nil || m != (protocol.QueryDeregister{Query: 1}) {
		t.Fatalf("frame after a maxFrame frame = %#v, %v: stream position lost", m, err)
	}
}

// AppendFrame's bytes, pinned against the parent's writeFrame (client
// wire) and writePeerFrame (peer wire) output for one message of each
// direction: hdr|payload is unchanged. The member
// reports' payloads end in the 16-byte velocity that enter and move
// reports carry; the node-relay envelope no longer carries an 8-byte map
// version after its hop count.
func TestAppendFrameGolden(t *testing.T) {
	rep := protocol.MemberReport{Query: 5, Epoch: 3, Object: 96, Pos: geo.Pt(13, 14), At: 21}
	for _, tc := range []struct {
		m   protocol.Message
		hex string
	}{
		{protocol.MoveReport{MemberReport: rep, Vel: geo.Vec(-2.5, 0.75)}, // uplink
			"35000000090500000003000000600000000000000000002a400000000000002c401500000000000000" +
				"00000000000004c0000000000000e83f"},
		{protocol.AnswerUpdate{Query: 8, Seq: 12, At: 31, QPos: geo.Pt(512, 504), // downlink
			Neighbors: []model.Neighbor{{ID: 4, Dist: 12.5}, {ID: 9, Dist: 13.75}}},
			"3b0000000d080000000c0000001f0000000000000000000000000080400000000000807f40" +
				"0200040000000000000000002940090000000000000000802b40"},
		{protocol.MonitorInstall{Query: 5, Epoch: 2, QueryPos: geo.Pt(100, 200), QueryVel: geo.Vec(-3, 4), // broadcast
			AnswerRadius: 75.25, Radius: 150.5, At: 17},
			"4300000004050000000200000000000000000000005940000000000000694000000000000008c0" +
				"00000000000010400000000000d052400000000000d062401100000000000000"},
		{protocol.NodeRelay{Origin: 42, Hops: 1, Inner: protocol.EnterReport{ // peer wire
			MemberReport: protocol.MemberReport{Query: 5, Epoch: 4, Object: 42, Pos: geo.Pt(5, 6), At: 38},
			Vel:          geo.Vec(0.5, 2)}},
			"3b000000112a000000010605000000040000002a0000000000000000001440" +
				"00000000000018402600000000000000" + "000000000000e03f0000000000000040"},
	} {
		if got := hex.EncodeToString(AppendFrame(nil, tc.m)); got != tc.hex {
			t.Errorf("%T framed as\n     %s\nwant %s", tc.m, got, tc.hex)
		}
		// Appending leaves what is already in the buffer alone.
		if got := AppendFrame([]byte{0xAA}, tc.m); got[0] != 0xAA || hex.EncodeToString(got[1:]) != tc.hex {
			t.Errorf("%T appended behind a prefix as %x", tc.m, got)
		}
	}
}

// The per-frame allocation budget of the socket path: encoding into a
// reused buffer allocates nothing, and reading a frame that fits the
// buffer allocates only the boxed message.
func TestFramePathAllocations(t *testing.T) {
	var m protocol.Message = protocol.MoveReport{MemberReport: protocol.MemberReport{Query: 5, Object: 96, At: 21}}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], m) }); n != 0 {
		t.Errorf("AppendFrame into a reused buffer: %v allocs/op, want 0", n)
	}
	src, rbuf, fr := bytes.NewReader(nil), make([]byte, 60), FrameReader{}
	if n := testing.AllocsPerRun(100, func() {
		src.Reset(buf)
		if _, err := fr.Next(src, rbuf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("reading one MoveReport frame: %v allocs/op, want <= 1 (the boxed message)", n)
	}
}

// A frame above the retention cap is not kept by the pool, so one large
// send (a 60 KB redirect, a query handoff) cannot pin its buffer.
func TestFramePoolDropsLargeBuffers(t *testing.T) {
	b := getFrame(sized(t, maxPooledFrame+1))
	putFrame(b)
	for i := 0; i < 100; i++ {
		got := framePool.Get().(*[]byte)
		if cap(*got) > maxPooledFrame {
			t.Fatalf("pool retained a %d-byte buffer (cap %d)", cap(*got), maxPooledFrame)
		}
	}
}
