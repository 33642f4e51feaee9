package protocol

import "dmknn/internal/model"

// QueryOf returns the query id a message pertains to, when it carries
// one. Every message of the query protocol proper — registration and
// track maintenance, probe traffic, membership reports, installs,
// cancels, and the answer stream — names its query, which is what makes
// exact query-id routing (internal/shard) and per-query send ordering
// possible. Kinds outside the per-query protocol (LocationReport
// keepalives, the federation's node-to-node envelopes) return false.
func QueryOf(m Message) (model.QueryID, bool) {
	switch v := m.(type) {
	case QueryRegister:
		return v.Query, true
	case QueryMove:
		return v.Query, true
	case QueryDeregister:
		return v.Query, true
	case ProbeRequest:
		return v.Query, true
	case ProbeReply:
		return v.Query, true
	case MonitorInstall:
		return v.Query, true
	case InfluenceInstall:
		return v.Install.Query, true
	case MonitorCancel:
		return v.Query, true
	case EnterReport:
		return v.Query, true
	case ExitReport:
		return v.Query, true
	case MoveReport:
		return v.Query, true
	case AnswerUpdate:
		return v.Query, true
	case AnswerDelta:
		return v.Query, true
	case AnswerResync:
		return v.Query, true
	default:
		return 0, false
	}
}
