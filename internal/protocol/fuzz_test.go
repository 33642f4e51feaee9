package protocol

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary byte strings to the decoder: it must never
// panic, and anything it accepts must re-encode to the identical bytes
// (a canonical-form round trip) whose length EncodedSize — the third copy
// of each layout — also reports.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xFF, 1, 2, 3})
	// The retired leave-report kind, laid out as a member report: rejected.
	f.Add(appendMemberReport([]byte{byte(KindLeaveReport)}, MemberReport{Query: 5, Epoch: 3, Object: 97, At: 20}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(nil, m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in  %x\n out %x", data, re)
		}
		if n := EncodedSize(m); n != len(data) {
			t.Fatalf("%v: EncodedSize %d, wire %d bytes", m.Kind(), n, len(data))
		}
	})
}
