package protocol

import (
	"testing"

	"dmknn/internal/model"
)

// Every message of the per-query protocol must expose its query id
// through QueryOf; kinds outside it must report false so routers drop
// them rather than misroute to shard 0.
func TestQueryOf(t *testing.T) {
	const q = model.QueryID(42)
	carriers := []Message{
		QueryRegister{Query: q},
		QueryMove{Query: q},
		QueryDeregister{Query: q},
		ProbeRequest{Query: q},
		ProbeReply{Query: q},
		MonitorInstall{Query: q},
		InfluenceInstall{Install: MonitorInstall{Query: q}},
		MonitorCancel{Query: q},
		EnterReport{MemberReport: MemberReport{Query: q}},
		ExitReport{MemberReport{Query: q}},
		MoveReport{MemberReport: MemberReport{Query: q}},
		AnswerUpdate{Query: q},
		AnswerDelta{Query: q},
		AnswerResync{Query: q},
	}
	for _, m := range carriers {
		got, ok := QueryOf(m)
		if !ok {
			t.Errorf("QueryOf(%v): no query id, want %d", m.Kind(), q)
			continue
		}
		if got != q {
			t.Errorf("QueryOf(%v) = %d, want %d", m.Kind(), got, q)
		}
	}

	if got, ok := QueryOf(LocationReport{Object: 7}); ok {
		t.Errorf("QueryOf(location-report) = %d, true; want false", got)
	}
	if got, ok := QueryOf(nil); ok {
		t.Errorf("QueryOf(nil) = %d, true; want false", got)
	}
}
