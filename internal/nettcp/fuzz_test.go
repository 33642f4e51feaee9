package nettcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/protocol"
)

// FuzzReadFrame hammers the TCP frame decoder the connections use with
// arbitrary bytes: a hostile or corrupted peer controls this input
// completely, so FrameReader must never panic, never allocate beyond
// maxFrame, accept and reject exactly what the reference decoder does
// (frame after frame, until the stream's first error), and anything it
// does accept must survive a re-encode/re-decode round trip.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames spanning the message zoo.
	f.Add(AppendFrame(nil, protocol.LocationReport{Object: 9, Pos: geo.Pt(1, 2), At: 3}))
	f.Add(AppendFrame(nil, protocol.QueryRegister{Query: 1, K: 5, Pos: geo.Pt(10, 20), At: 7}))
	f.Add(AppendFrame(nil, protocol.AnswerUpdate{Query: 1, Seq: 42, At: 9}))
	f.Add(AppendFrame(nil, protocol.ProbeRequest{
		Query: 3, Seq: 2, Region: geo.Circle{Center: geo.Pt(5, 5), R: 50},
	}))
	// Malformed shapes the decoder must reject cleanly.
	f.Add([]byte{})                            // empty stream
	f.Add([]byte{1, 0})                        // truncated length prefix
	f.Add([]byte{0, 0, 0, 0})                  // zero-length frame
	f.Add([]byte{255, 255, 255, 255, 1, 2, 3}) // absurd length prefix
	short := AppendFrame(nil, protocol.LocationReport{Object: 1})
	f.Add(short[:len(short)-2]) // truncated payload
	over := make([]byte, 4, 16)
	binary.LittleEndian.PutUint32(over, maxFrame+1)
	f.Add(append(over, 0xEE, 0xEE)) // length just past the cap
	garb := AppendFrame(nil, protocol.LocationReport{Object: 2, Pos: geo.Pt(3, 4)})
	garb[7] ^= 0xFF
	f.Add(garb) // bit-flipped payload
	// Frames back to back, as a connection delivers them: small ones that
	// share a read, one larger than the read buffer, then a torn tail.
	var train []byte
	for i := 0; i < 3; i++ {
		train = AppendFrame(train, protocol.MonitorCancel{Query: 3, Epoch: uint32(i)})
	}
	train = AppendFrame(train, sized(f, 200))
	train = AppendFrame(train, protocol.QueryDeregister{Query: 4})
	f.Add(train)
	f.Add(append(train, short[:9]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Same verdict as the reference on the whole stream, whole and
		// through a reader that tears every frame.
		checkAgainstRef(t, data, 60)
		// Accepted frames must be canonical: re-encoding the decoded
		// message and decoding it again yields the same wire bytes.
		// (Bytes, not structs: NaN payload floats are legal on the wire
		// but NaN != NaN under DeepEqual.)
		src, buf, fr := bytes.NewReader(data), make([]byte, 60), FrameReader{}
		for {
			msg, err := fr.Next(src, buf)
			if err != nil {
				return // rejected: fine, as long as it didn't panic
			}
			first := AppendFrame(nil, msg)
			redone, err := new(FrameReader).Next(bytes.NewReader(first), make([]byte, 60))
			if err != nil {
				t.Fatalf("re-encoded frame rejected: %v (msg %#v)", err, msg)
			}
			if again := AppendFrame(nil, redone); !bytes.Equal(again, first) {
				t.Fatalf("frame round trip diverged:\n got %x\nwant %x", again, first)
			}
		}
	})
}
