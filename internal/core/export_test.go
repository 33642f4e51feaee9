package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dmknn/internal/geo"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
)

// randHandoff draws a structurally valid snapshot: finite track,
// admissible (K, Range), and id slices sorted ascending as ExportMonitorsWhere
// guarantees. Values are pushed to awkward corners on purpose — answer
// sequences near uint32 wraparound, negative prev-region radius (the
// empty circle), zero-length sets.
func randHandoff(rng *rand.Rand) protocol.QueryHandoff {
	pt := func() geo.Point {
		return geo.Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
	}
	ids := func(maxLen int) []model.ObjectID {
		n := rng.Intn(maxLen + 1)
		if n == 0 {
			return nil
		}
		seen := map[model.ObjectID]bool{}
		out := make([]model.ObjectID, 0, n)
		for len(out) < n {
			id := model.ObjectID(1 + rng.Intn(1000))
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		// Match the export's sorted-by-id invariant.
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	st := protocol.QueryHandoff{
		Query:        model.QueryID(1 + rng.Intn(1<<16)),
		K:            uint32(1 + rng.Intn(64)),
		Addr:         model.ObjectID(1 + rng.Intn(1<<16)),
		QPos:         pt(),
		QVel:         geo.Vector{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10},
		QAt:          model.Tick(rng.Intn(10000)),
		Epoch:        rng.Uint32(),
		Installed:    rng.Intn(2) == 0,
		AnswerRadius: rng.Float64() * 100,
		Radius:       rng.Float64() * 300,
		InstalledAt:  model.Tick(rng.Intn(10000)),
		AdvPos:       pt(),
		AdvVel:       geo.Vector{X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10},
		AnswerSeq:    uint32(int64(1<<32) - 3 + int64(rng.Intn(6))), // straddle wraparound
		LastProbeAt:  model.Tick(rng.Intn(10000)),
		Inside:       ids(8),
		Sent:         ids(8),
	}
	if rng.Intn(4) == 0 {
		st.K, st.Range = 0, 10+rng.Float64()*100 // range monitor
	}
	if n := rng.Intn(9); n > 0 {
		for _, id := range ids(n) {
			st.Candidates = append(st.Candidates, protocol.CandidateRecord{ID: id, Pos: pt()})
		}
	}
	return st
}

// Satellite property test: a monitor snapshot survives the migration
// encoding unchanged — QueryHandoff → binary codec → QueryHandoff is the
// identity, including nil slice shape and wraparound answer sequences.
// An empty non-nil set encodes exactly like a nil one, so the decoder's
// nil is the only shape an empty set has on the wire.
func TestQueryHandoffWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		st := randHandoff(rng)
		buf := protocol.Encode(nil, st)
		m, err := protocol.Decode(buf)
		if err != nil {
			t.Fatalf("case %d: decode: %v\nstate %+v", i, err, st)
		}
		back, ok := m.(protocol.QueryHandoff)
		if !ok {
			t.Fatalf("case %d: decoded %T, want QueryHandoff", i, m)
		}
		if !reflect.DeepEqual(back, st) {
			t.Fatalf("case %d: round trip diverged\n got %+v\nwant %+v", i, back, st)
		}
		empty := st
		if empty.Candidates == nil {
			empty.Candidates = []protocol.CandidateRecord{}
		}
		if empty.Inside == nil {
			empty.Inside = []model.ObjectID{}
		}
		if empty.Sent == nil {
			empty.Sent = []model.ObjectID{}
		}
		if !bytes.Equal(protocol.Encode(nil, empty), buf) {
			t.Fatalf("case %d: empty and nil sets encode differently", i)
		}
	}
}

// Satellite property test: Export → Import → Export is a fixed point of
// live server state. The only deltas the re-export may show are the two
// documented import side effects: the re-baselining full AnswerUpdate
// bumps AnswerSeq by one, and rewrites Sent to the recomputed answer's
// membership (which at steady state is what the exporter had sent).
// The subtest names keep the "influence=false" segment of the retired
// influence on/off loop, so every case keeps the name it has always had.
func TestExportImportExportFixedPoint(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("influence=false/seed%d", seed), func(t *testing.T) {
			testExportImportExportFixedPoint(t, seed)
		})
	}
}

func testExportImportExportFixedPoint(t *testing.T, seed int64) {
	{
		cfg := baseCfg()
		rng := rand.New(rand.NewSource(seed))
		srv, side, now := unitServer(t, cfg)
		*now = 1
		installQuery(t, srv, side, 1)

		// Churn the monitor: in-boundary drift, an exit, an enter, all at
		// random positions so each seed exercises a different final state.
		for tick := model.Tick(2); tick <= 6; tick++ {
			*now = tick
			srv.Tick(tick)
			for id := model.ObjectID(1); id <= 3; id++ {
				srv.HandleUplink(id, protocol.MoveReport{MemberReport: protocol.MemberReport{
					Query: 1, Epoch: 1, Object: id,
					Pos: geo.Pt(500+rng.Float64()*40, 495+rng.Float64()*10), At: tick,
				}})
			}
			srv.Finalize(tick)
		}

		st1, ok := exportOne(srv, 1)
		if !ok {
			t.Fatalf("seed %d: export refused", seed)
		}
		if srv.HasQuery(1) {
			t.Fatalf("seed %d: query still registered after export", seed)
		}
		if _, ok := exportOne(srv, 1); ok {
			t.Fatalf("seed %d: second export of a removed monitor succeeded", seed)
		}

		srv2, side2, now2 := unitServer(t, cfg)
		*now2 = *now
		srv2.ImportMonitor(st1, *now2)
		if !srv2.HasQuery(1) {
			t.Fatalf("seed %d: import did not register the query", seed)
		}
		// The import must re-baseline the focal client immediately.
		if len(side2.downlinks) == 0 {
			t.Fatalf("seed %d: import sent nothing to the focal client", seed)
		}
		last := side2.downlinks[len(side2.downlinks)-1]
		resync, ok := last.msg.(protocol.AnswerUpdate)
		if !ok {
			t.Fatalf("seed %d: import sent %T, want re-baselining AnswerUpdate", seed, last.msg)
		}
		if last.to != st1.Addr {
			t.Fatalf("seed %d: re-baseline sent to %d, want focal addr %d", seed, last.to, st1.Addr)
		}
		if resync.Seq != st1.AnswerSeq+1 {
			t.Fatalf("seed %d: resync seq %d, want exported seq %d + 1",
				seed, resync.Seq, st1.AnswerSeq)
		}

		st2, ok := exportOne(srv2, 1)
		if !ok {
			t.Fatalf("seed %d: re-export refused", seed)
		}
		if st2.AnswerSeq != st1.AnswerSeq+1 {
			t.Fatalf("seed %d: re-export AnswerSeq %d, want %d",
				seed, st2.AnswerSeq, st1.AnswerSeq+1)
		}
		// At steady state the re-baseline recomputes exactly the membership
		// the exporter last sent, so Sent is itself a fixed point.
		if !reflect.DeepEqual(st2.Sent, st1.Sent) {
			t.Fatalf("seed %d: Sent diverged\n got %v\nwant %v", seed, st2.Sent, st1.Sent)
		}
		norm := st2
		norm.AnswerSeq = st1.AnswerSeq
		if !reflect.DeepEqual(norm, st1) {
			t.Fatalf("seed %d: export/import/export not a fixed point\n got %+v\nwant %+v",
				seed, st2, st1)
		}
	}
}

// An export must refuse while a probe round is in flight (the replies
// are addressed to the exporting server) and for unknown queries.
func TestExportRefusesProbingAndUnknown(t *testing.T) {
	srv, _, now := unitServer(t, baseCfg())
	*now = 1
	if _, ok := exportOne(srv, 99); ok {
		t.Fatal("exported an unknown query")
	}
	srv.HandleUplink(500, protocol.QueryRegister{Query: 1, K: 2, Pos: geo.Pt(500, 500), At: 1})
	srv.Tick(1) // probe now in flight, no replies yet
	if _, ok := exportOne(srv, 1); ok {
		t.Fatal("exported a monitor mid-probe")
	}
}

// ImportMonitor applies the register-path sanity bounds to snapshots —
// they cross an inter-node link, an open surface like the radio — and
// drops a snapshot for an already-registered query.
func TestImportMonitorRejectsInvalidAndDuplicate(t *testing.T) {
	srv, _, now := unitServer(t, baseCfg())
	*now = 1
	base := protocol.QueryHandoff{Query: 7, K: 2, Addr: 500, QPos: geo.Pt(100, 100)}

	bad := base
	bad.K = 0 // kNN monitor with no k
	srv.ImportMonitor(bad, 1)
	if srv.HasQuery(7) {
		t.Fatal("imported a k=0 kNN snapshot")
	}
	bad = base
	bad.K = maxK + 1 // past the register path's bound
	srv.ImportMonitor(bad, 1)
	if srv.HasQuery(7) {
		t.Fatal("imported a k=maxK+1 kNN snapshot")
	}
	bad = base
	bad.QPos = geo.Pt(100, nan())
	srv.ImportMonitor(bad, 1)
	if srv.HasQuery(7) {
		t.Fatal("imported a non-finite track")
	}
	bad = base
	bad.AdvVel = geo.Vector{X: nan()}
	srv.ImportMonitor(bad, 1)
	if srv.HasQuery(7) {
		t.Fatal("imported a non-finite advertised track")
	}
	bad = base
	bad.Range = -1
	srv.ImportMonitor(bad, 1)
	if srv.HasQuery(7) {
		t.Fatal("imported a negative-range snapshot")
	}

	srv.ImportMonitor(base, 1)
	if !srv.HasQuery(7) {
		t.Fatal("rejected a valid snapshot")
	}
	dup := base
	dup.K = 5
	srv.ImportMonitor(dup, 1)
	st, ok := exportOne(srv, 7)
	if !ok || st.K != 2 {
		t.Fatalf("duplicate import overwrote the registered monitor: k=%d ok=%v", st.K, ok)
	}
}

func nan() float64 {
	v := 0.0
	return v / v
}

// An export sends the monitor's pending answer before it takes the
// snapshot, so the snapshot's AnswerSeq and Sent count it. The importer's
// re-baseline reaches the client a link delivery later; until then the
// client holds the answer the exporter sent.
func TestExportSendsPendingAnswer(t *testing.T) {
	srv, side, now := unitServer(t, baseCfg())
	*now = 1
	inst := installQuery(t, srv, side, 1)
	base := len(side.downlinks)
	*now = 2
	srv.HandleUplink(4, protocol.EnterReport{MemberReport: protocol.MemberReport{
		Query: 1, Epoch: inst.Epoch, Object: 4, Pos: geo.Pt(505, 500), At: 2,
	}})
	if n := len(side.downlinks) - base; n != 0 {
		t.Fatalf("the report sent %d answers, want it pending", n)
	}
	st, ok := exportOne(srv, 1)
	if !ok {
		t.Fatal("export refused")
	}
	if n := len(side.downlinks) - base; n != 1 {
		t.Fatalf("the export sent %d answers, want the pending one", n)
	}
	au, ok := side.downlinks[base].msg.(protocol.AnswerUpdate)
	if !ok || au.Seq != 2 || len(au.Neighbors) != 2 || au.Neighbors[0].ID != 4 || au.Neighbors[1].ID != 1 {
		t.Fatalf("export sent %+v, want seq 2 naming 4 and 1", side.downlinks[base].msg)
	}
	if st.AnswerSeq != 2 || !reflect.DeepEqual(st.Sent, []model.ObjectID{1, 4}) {
		t.Fatalf("snapshot AnswerSeq %d Sent %v, want 2 and [1 4]", st.AnswerSeq, st.Sent)
	}
}
