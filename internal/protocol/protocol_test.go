package protocol

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
)

// sampleMessages returns one representative of every message kind, with
// non-trivial field values so byte-order bugs can't hide behind zeros.
func sampleMessages() []Message {
	return []Message{
		LocationReport{Object: 7, Pos: geo.Pt(1.5, -2.25), Vel: geo.Vec(0.5, 9), At: 42},
		ProbeRequest{Query: 3, Seq: 9, Region: geo.Circle{Center: geo.Pt(10, 20), R: 55.5}, At: 1},
		ProbeReply{Query: 3, Seq: 9, Object: 12, Pos: geo.Pt(-1, -2), At: 2},
		MonitorInstall{Query: 5, Epoch: 2, QueryPos: geo.Pt(100, 200), QueryVel: geo.Vec(-3, 4),
			AnswerRadius: 75.25, Radius: 150.5, At: 17},
		MonitorInstall{Query: 6, Epoch: 3, Refresh: true, QueryPos: geo.Pt(1, 2), QueryVel: geo.Vec(0, 0),
			AnswerRadius: 10, Radius: 20, At: 18},
		InfluenceInstall{Install: MonitorInstall{Query: 7, Epoch: 4, QueryPos: geo.Pt(50, 60),
			QueryVel: geo.Vec(1, -1), AnswerRadius: 80, Radius: 120, At: 19},
			Frontier: 64.25, Band: 5.5},
		InfluenceInstall{Install: MonitorInstall{Query: 7, Epoch: 5, Refresh: true,
			QueryPos: geo.Pt(51, 59), AnswerRadius: 82, Radius: 121, At: 20}}, // no valid frontier
		MonitorCancel{Query: 5, Epoch: 2},
		EnterReport{MemberReport{Query: 5, Epoch: 2, Object: 99, Pos: geo.Pt(7, 8), At: 18}},
		ExitReport{MemberReport{Query: 5, Epoch: 2, Object: 98, Pos: geo.Pt(9, 10), At: 19}},
		LeaveReport{MemberReport{Query: 5, Epoch: 3, Object: 97, Pos: geo.Pt(11, 12), At: 20}},
		MoveReport{MemberReport{Query: 5, Epoch: 3, Object: 96, Pos: geo.Pt(13, 14), At: 21}},
		QueryRegister{Query: 8, K: 10, Pos: geo.Pt(500, 500), Vel: geo.Vec(1, 1), At: 0},
		QueryRegister{Query: 9, Range: 250.5, Pos: geo.Pt(10, 10), At: 1},
		MonitorInstall{Query: 9, Epoch: 1, RangeMode: true, QueryPos: geo.Pt(10, 10),
			AnswerRadius: 250.5, Radius: 400, At: 1},
		QueryMove{Query: 8, Pos: geo.Pt(510, 505), Vel: geo.Vec(2, 0), At: 30},
		QueryDeregister{Query: 8},
		AnswerUpdate{Query: 8, Seq: 12, At: 31, QPos: geo.Pt(512, 504),
			Neighbors: []model.Neighbor{
				{ID: 4, Dist: 12.5}, {ID: 9, Dist: 13.75}, {ID: 1, Dist: 99},
			}},
		AnswerUpdate{Query: 9, Seq: 1, At: 32}, // empty answer
		AnswerDelta{Query: 9, Seq: 13, At: 33,
			Added:   []model.Neighbor{{ID: 5, Dist: 7.5}},
			Removed: []model.ObjectID{3, 4}},
		AnswerDelta{Query: 10, Seq: 2, At: 34}, // empty delta
		AnswerResync{Query: 9, LastSeq: 13, At: 35},
		NodeForward{Home: 2, Version: 5, Region: geo.Circle{Center: geo.Pt(300, 400), R: 120.5},
			Inner: ProbeRequest{Query: 3, Seq: 9, Region: geo.Circle{Center: geo.Pt(300, 400), R: 120.5}, At: 36}},
		NodeForward{Home: 0, Region: geo.Circle{Center: geo.Pt(1, 2), R: 3},
			Inner: MonitorInstall{Query: 5, Epoch: 4, QueryPos: geo.Pt(1, 2), QueryVel: geo.Vec(0.5, -0.5),
				AnswerRadius: 2, Radius: 3, At: 37}},
		NodeForward{Home: 7, Region: geo.Circle{Center: geo.Pt(9, 9), R: -1},
			Inner: MonitorCancel{Query: 5, Epoch: 4}},
		NodeForward{Home: 3, Version: 6, Region: geo.Circle{Center: geo.Pt(50, 60), R: 120},
			Inner: InfluenceInstall{Install: MonitorInstall{Query: 7, Epoch: 4,
				QueryPos: geo.Pt(50, 60), QueryVel: geo.Vec(1, -1),
				AnswerRadius: 80, Radius: 120, At: 19},
				Frontier: 64.25, Band: 5.5}},
		NodeRelay{Origin: 42, Hops: 1,
			Inner: EnterReport{MemberReport{Query: 5, Epoch: 4, Object: 42, Pos: geo.Pt(5, 6), At: 38}}},
		NodeRelay{Origin: 43, Hops: 3, Version: 2,
			Inner: QueryMove{Query: 8, Pos: geo.Pt(511, 506), Vel: geo.Vec(2, 1), At: 39}},
		NodeDeliver{To: 44, Version: 3,
			Inner: AnswerUpdate{Query: 8, Seq: 14, At: 40, QPos: geo.Pt(513, 505),
				Neighbors: []model.Neighbor{{ID: 4, Dist: 11.25}}}},
		ObjectHandoff{Object: 45, Pos: geo.Pt(640, 320), Vel: geo.Vec(-1.5, 2.5), At: 41,
			Aware: []AwareEntry{{Query: 5, Home: 1}, {Query: 8, Home: 3}}},
		ObjectHandoff{Object: 46, Pos: geo.Pt(0, 0), Vel: geo.Vec(0, 0), At: 42}, // no awareness
		QueryHandoff{Query: 8, K: 4, Addr: 1001, QPos: geo.Pt(515, 505), QVel: geo.Vec(2, 0), QAt: 43,
			Epoch: 6, Installed: true, AnswerRadius: 80.5, Radius: 161, InstalledAt: 40,
			PrevRegion: geo.Circle{Center: geo.Pt(510, 505), R: 150}, AnswerSeq: 15, LastProbeAt: 12,
			Frontier: 70.5, Band: 4.75,
			Candidates: []CandidateRecord{{ID: 4, Pos: geo.Pt(520, 500)}, {ID: 9, Pos: geo.Pt(500, 510)}},
			Inside:     []model.ObjectID{4, 9},
			Sent:       []model.ObjectID{4, 9},
			Spread:     []uint16{0, 2}},
		QueryHandoff{Query: 12, K: 1, Range: 90.5, Addr: 1002, QPos: geo.Pt(1, 1), QAt: 44,
			Epoch: 1, AnswerRadius: 90.5, Radius: 140}, // probing-era handoff: empty state
		QueryHandoffAck{Query: 8},
		NodeClientGone{Object: 45},
		PeerHello{Node: 2, Nodes: 4, Version: 6, At: 46},
		PeerHeartbeat{Node: 3, At: 47},
		NodeRedirect{Node: 1, Addr: "127.0.0.1:7708"},
		NodeRedirect{Node: 0, Addr: ""}, // address-less redirect (peer known to client)
		NodeLoad{Node: 1, Version: 6, Population: 250, Queries: 12, BusyUS: 123456789, At: 48},
		PartitionUpdate{Version: 7, Owners: []uint16{0, 0, 0, 1, 2, 2, 3, 3}},
		PartitionUpdate{Version: 1}, // ownerless update (rejected by appliers, wire-legal)
		PartitionAck{Node: 2, Version: 7},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := Encode(nil, m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%v: Decode error: %v", m.Kind(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", m.Kind(), got, m)
		}
	}
}

// The socket transports decode frames straight out of a read buffer they
// overwrite with the next frame, which is sound only while a decoded
// message keeps no reference into the bytes it was decoded from.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, m := range sampleMessages() {
		want := Encode(nil, m)
		scratch := bytes.Clone(want)
		got, err := Decode(scratch)
		if err != nil {
			t.Fatalf("%v: Decode error: %v", m.Kind(), err)
		}
		for i := range scratch {
			scratch[i] = 0xFF
		}
		if again := Encode(nil, got); !bytes.Equal(again, want) {
			t.Errorf("%v: decoded message changed when its input buffer was overwritten:\n got %x\nwant %x",
				m.Kind(), again, want)
		}
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := Encode(nil, m)
		if got := EncodedSize(m); got != len(buf) {
			t.Errorf("%v: EncodedSize = %d, Encode produced %d bytes", m.Kind(), got, len(buf))
		}
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf := Encode(prefix, QueryDeregister{Query: 1})
	if len(buf) != 2+EncodedSize(QueryDeregister{Query: 1}) {
		t.Fatalf("Encode did not append: len %d", len(buf))
	}
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("Encode clobbered prefix")
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, m := range sampleMessages() {
		buf := Encode(nil, m)
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Decode(buf[:cut]); err == nil {
				t.Fatalf("%v: truncation to %d bytes decoded successfully", m.Kind(), cut)
			}
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf := Encode(nil, MonitorCancel{Query: 1, Epoch: 1})
	buf = append(buf, 0x00)
	if _, err := Decode(buf); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	_, err := Decode([]byte{0xFF, 0, 0, 0, 0})
	if !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty buffer err = %v, want ErrTruncated", err)
	}
	if _, err := Decode([]byte{0}); err == nil {
		t.Fatal("kind 0 accepted")
	}
}

// Envelope kinds must reject inner kinds outside their allow-list: a
// NodeForward may only carry broadcasts, a NodeRelay only uplinks, a
// NodeDeliver only answers. In particular an envelope nested in an
// envelope is invalid, which bounds decode recursion at depth two.
func TestDecodeNestedKindRestrictions(t *testing.T) {
	bad := []Message{
		NodeForward{Home: 1, Region: geo.Circle{Center: geo.Pt(1, 2), R: 3},
			Inner: QueryDeregister{Query: 5}},
		NodeForward{Home: 1, Region: geo.Circle{Center: geo.Pt(1, 2), R: 3},
			Inner: NodeForward{Home: 2, Region: geo.Circle{Center: geo.Pt(1, 2), R: 3},
				Inner: MonitorCancel{Query: 5, Epoch: 1}}},
		NodeRelay{Origin: 7, Hops: 1, Inner: AnswerUpdate{Query: 5, Seq: 1, At: 2}},
		NodeRelay{Origin: 7, Hops: 1, Inner: NodeRelay{Origin: 8, Hops: 2,
			Inner: QueryDeregister{Query: 5}}},
		NodeDeliver{To: 7, Inner: MonitorCancel{Query: 5, Epoch: 1}},
	}
	for _, m := range bad {
		if _, err := Decode(Encode(nil, m)); err == nil {
			t.Errorf("%v with inner %v decoded successfully", m.Kind(), innerKind(m))
		}
	}
}

func innerKind(m Message) Kind {
	switch v := m.(type) {
	case NodeForward:
		return v.Inner.Kind()
	case NodeRelay:
		return v.Inner.Kind()
	case NodeDeliver:
		return v.Inner.Kind()
	}
	return 0
}

func TestAnswerUpdateLargeAnswer(t *testing.T) {
	ns := make([]model.Neighbor, 1000)
	for i := range ns {
		ns[i] = model.Neighbor{ID: model.ObjectID(i + 1), Dist: float64(i) * 1.5}
	}
	m := AnswerUpdate{Query: 1, At: 5, Neighbors: ns}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("large answer round trip mismatch")
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds() {
		if k.String() == "" || k.String()[0] == 'k' && k.String() != kindNames[k] {
			t.Errorf("kind %d has bad name %q", k, k.String())
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind string = %q", Kind(200).String())
	}
}

func TestKindsCoversAllSamples(t *testing.T) {
	have := map[Kind]bool{}
	for _, m := range sampleMessages() {
		have[m.Kind()] = true
	}
	for _, k := range Kinds() {
		if !have[k] {
			t.Errorf("no sample message for kind %v; extend sampleMessages", k)
		}
	}
}

func TestMonitorInstallRegion(t *testing.T) {
	m := MonitorInstall{QueryPos: geo.Pt(5, 6), Radius: 7}
	r := m.Region()
	if r.Center != geo.Pt(5, 6) || r.R != 7 {
		t.Fatalf("Region = %v", r)
	}
	ii := InfluenceInstall{Install: m, Frontier: 3}
	if ii.Region() != r {
		t.Fatalf("InfluenceInstall.Region = %v, want %v", ii.Region(), r)
	}
}

// A NaN, infinite, or negative threshold must be rejected at decode —
// on an object agent it would silently disable (or permanently force)
// reporting. The check runs for the bare install, the same install
// nested in a NodeForward, and the handoff thresholds on the peer wire.
func TestDecodeBadThreshold(t *testing.T) {
	install := MonitorInstall{Query: 7, Epoch: 4, QueryPos: geo.Pt(50, 60),
		AnswerRadius: 80, Radius: 120, At: 19}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for _, v := range bad {
		for _, m := range []Message{
			InfluenceInstall{Install: install, Frontier: v, Band: 1},
			InfluenceInstall{Install: install, Frontier: 64, Band: v},
			NodeForward{Home: 1, Region: install.Region(),
				Inner: InfluenceInstall{Install: install, Frontier: v}},
			QueryHandoff{Query: 8, K: 4, Addr: 1001, Frontier: v},
			QueryHandoff{Query: 8, K: 4, Addr: 1001, Frontier: 70, Band: v},
		} {
			_, err := Decode(Encode(nil, m))
			if !errors.Is(err, ErrBadThreshold) {
				t.Errorf("%v with threshold %v: err = %v, want ErrBadThreshold",
					m.Kind(), v, err)
			}
		}
	}
}

// Fuzz-ish robustness: random buffers never panic and either decode to a
// valid kind or error.
func TestDecodeRandomBuffersNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(80)
		buf := make([]byte, n)
		rng.Read(buf)
		m, err := Decode(buf)
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
	}
}

func BenchmarkEncodeLocationReport(b *testing.B) {
	m := LocationReport{Object: 7, Pos: geo.Pt(1, 2), Vel: geo.Vec(3, 4), At: 42}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecodeLocationReport(b *testing.B) {
	buf := Encode(nil, LocationReport{Object: 7, Pos: geo.Pt(1, 2), Vel: geo.Vec(3, 4), At: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
