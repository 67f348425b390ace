package decisionlog

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"mvcom/internal/core"
	"mvcom/internal/seobs"
)

// Hand-rolled entry encoding. The serve loop journals one entry per
// epoch, and reflection-based encoding was the journal's dominant cost
// on that path — a third of the whole on/off overhead that
// BenchmarkEpochServeDecisionLog reports and the benchmark journal holds
// to 1.03. The encoder below produces output
// byte-identical to encoding/json over Entry's struct tags (asserted by
// TestAppendEntryJSONMatchesEncodingJSON), so readers, the debug
// endpoint, and old journals see no difference; only the cost moves.

// appendJSONString appends s as a JSON string. Plain ASCII without
// escapes is the fast path; anything needing escaping (control chars,
// quotes, backslashes, HTML characters, non-ASCII) defers to
// encoding/json, which also applies its default HTML escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= utf8.RuneSelf {
			enc, err := json.Marshal(s)
			if err != nil {
				// A string cannot fail to marshal; keep the entry valid.
				return append(b, `""`...)
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat mirrors encoding/json's float64 rendering exactly:
// 'f' format in the JSON-friendly exponent range, 'e' outside it with
// the two-digit exponent shortened.
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendKey separates the previous member (unless the container was
// just opened) and appends `"key":`.
func appendKey(b []byte, key string) []byte {
	if n := len(b); n > 0 && b[n-1] != '{' && b[n-1] != '[' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

func appendIntField(b []byte, key string, v int) []byte {
	b = appendKey(b, key)
	return strconv.AppendInt(b, int64(v), 10)
}

func appendInt64Field(b []byte, key string, v int64) []byte {
	b = appendKey(b, key)
	return strconv.AppendInt(b, v, 10)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	b = appendKey(b, key)
	return appendJSONFloat(b, v)
}

func appendBoolField(b []byte, key string, v bool) []byte {
	b = appendKey(b, key)
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

func appendStringField(b []byte, key, s string) []byte {
	b = appendKey(b, key)
	return appendJSONString(b, s)
}

// appendIntSlice appends an []int member. With omitEmpty it mirrors
// `json:",omitempty"` (nil and empty both omitted); without, nil
// renders as null and empty as [].
func appendIntSlice(b []byte, key string, s []int, omitEmpty bool) []byte {
	if omitEmpty && len(s) == 0 {
		return b
	}
	b = appendKey(b, key)
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

func appendShard(b []byte, s *ShardRecord) []byte {
	b = append(b, '{')
	b = appendIntField(b, "committee", s.Committee)
	b = appendIntField(b, "size", s.Size)
	b = appendFloatField(b, "latency", s.Latency)
	b = appendFloatField(b, "age", s.Age)
	if s.Deferrals != 0 {
		b = appendIntField(b, "deferrals", s.Deferrals)
	}
	return append(b, '}')
}

func appendFingerprint(b []byte, f *SolverFingerprint) []byte {
	b = append(b, '{')
	b = appendStringField(b, "kind", f.Kind)
	if f.Seed != 0 {
		b = appendInt64Field(b, "seed", f.Seed)
	}
	if f.Beta != 0 {
		b = appendFloatField(b, "beta", f.Beta)
	}
	if f.Tau != 0 {
		b = appendFloatField(b, "tau", f.Tau)
	}
	if f.Gamma != 0 {
		b = appendIntField(b, "gamma", f.Gamma)
	}
	if f.Workers != 0 {
		b = appendIntField(b, "workers", f.Workers)
	}
	if f.MaxIters != 0 {
		b = appendIntField(b, "maxIters", f.MaxIters)
	}
	if f.ConvergenceWindow != 0 {
		b = appendIntField(b, "convergenceWindow", f.ConvergenceWindow)
	}
	if f.SwapRetries != 0 {
		b = appendIntField(b, "swapRetries", f.SwapRetries)
	}
	if f.InitRetries != 0 {
		b = appendIntField(b, "initRetries", f.InitRetries)
	}
	if f.MaxCandidates != 0 {
		b = appendIntField(b, "maxCandidates", f.MaxCandidates)
	}
	if f.MaxThreads != 0 {
		b = appendIntField(b, "maxThreads", f.MaxThreads)
	}
	if f.RawRates {
		b = appendBoolField(b, "rawRates", true)
	}
	if f.WarmStart {
		b = appendBoolField(b, "warmStart", true)
	}
	if f.Adaptive {
		b = appendBoolField(b, "adaptive", true)
	}
	return append(b, '}')
}

func appendMarginal(b []byte, m *core.Marginal) []byte {
	b = append(b, '{')
	b = appendIntField(b, "shard", m.Shard)
	b = appendFloatField(b, "utility", m.Utility)
	if m.Binding {
		b = appendBoolField(b, "binding", true)
	}
	return append(b, '}')
}

func appendRejection(b []byte, r *core.Rejection) []byte {
	b = append(b, '{')
	b = appendIntField(b, "shard", r.Shard)
	b = appendFloatField(b, "value", r.Value)
	b = appendIntSlice(b, "evicted", r.Evicted, true)
	if r.EvictedValue != 0 {
		b = appendFloatField(b, "evictedValue", r.EvictedValue)
	}
	b = appendFloatField(b, "netGain", r.NetGain)
	if r.Feasible {
		b = appendBoolField(b, "feasible", true)
	}
	return append(b, '}')
}

func appendDeferral(b []byte, d *DeferralEvent) []byte {
	b = append(b, '{')
	b = appendIntField(b, "committee", d.Committee)
	b = appendStringField(b, "kind", d.Kind)
	b = appendIntField(b, "deferrals", d.Deferrals)
	if d.MaxDeferrals != 0 {
		b = appendIntField(b, "maxDeferrals", d.MaxDeferrals)
	}
	return append(b, '}')
}

func appendDigest(b []byte, d *seobs.Digest) []byte {
	b = append(b, '{')
	b = appendInt64Field(b, "rounds", d.Rounds)
	b = appendInt64Field(b, "improvements", d.Improvements)
	b = appendIntField(b, "time_to_eps_rounds", d.TimeToEpsRounds)
	if d.ScheduleStage != 0 {
		b = appendIntField(b, "schedule_stage", d.ScheduleStage)
	}
	b = appendFloatField(b, "best_utility", d.BestUtility)
	b = appendBoolField(b, "have_best", d.HaveBest)
	if d.WarmStarts != 0 {
		b = appendIntField(b, "warm_starts", d.WarmStarts)
	}
	return append(b, '}')
}

func appendTask(b []byte, t *TaskRecord) []byte {
	b = append(b, '{')
	b = appendStringField(b, "taskId", t.TaskID)
	b = appendInt64Field(b, "seed", t.Seed)
	b = appendIntField(b, "iterations", t.Iterations)
	b = appendFloatField(b, "utility", t.Utility)
	b = appendIntSlice(b, "selected", t.Selected, true)
	if t.Err != "" {
		b = appendStringField(b, "err", t.Err)
	}
	return append(b, '}')
}

// appendEntryJSON encodes e exactly as encoding/json renders Entry's
// struct tags (no trailing newline).
func appendEntryJSON(b []byte, e *Entry) []byte {
	b = append(b, '{')
	b = appendIntField(b, "schema", e.Schema)
	b = appendIntField(b, "epoch", e.Epoch)
	if e.TraceID != 0 {
		b = appendKey(b, "traceId")
		b = strconv.AppendUint(b, e.TraceID, 10)
	}
	b = appendFloatField(b, "ddl", e.DDL)
	b = appendFloatField(b, "alpha", e.Alpha)
	b = appendIntField(b, "capacity", e.Capacity)
	b = appendIntField(b, "nmin", e.Nmin)
	b = appendKey(b, "shards")
	if e.Shards == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range e.Shards {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendShard(b, &e.Shards[i])
		}
		b = append(b, ']')
	}
	b = appendKey(b, "solver")
	b = appendFingerprint(b, &e.Solver)
	if e.Warm {
		b = appendBoolField(b, "warm", true)
	}
	b = appendIntSlice(b, "warmPrev", e.WarmPrev, true)
	if e.NonReplayable != "" {
		b = appendStringField(b, "nonReplayable", e.NonReplayable)
	}
	b = appendIntSlice(b, "selected", e.Selected, false)
	b = appendFloatField(b, "utility", e.Utility)
	b = appendIntField(b, "load", e.Load)
	b = appendIntField(b, "count", e.Count)
	if e.Iterations != 0 {
		b = appendIntField(b, "iterations", e.Iterations)
	}
	if len(e.Marginals) > 0 {
		b = appendKey(b, "marginals")
		b = append(b, '[')
		for i := range e.Marginals {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMarginal(b, &e.Marginals[i])
		}
		b = append(b, ']')
	}
	if len(e.Rejected) > 0 {
		b = appendKey(b, "rejected")
		b = append(b, '[')
		for i := range e.Rejected {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendRejection(b, &e.Rejected[i])
		}
		b = append(b, ']')
	}
	if len(e.Deferrals) > 0 {
		b = appendKey(b, "deferrals")
		b = append(b, '[')
		for i := range e.Deferrals {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDeferral(b, &e.Deferrals[i])
		}
		b = append(b, ']')
	}
	if e.Diag != nil {
		b = appendKey(b, "diag")
		b = appendDigest(b, e.Diag)
	}
	if len(e.Tasks) > 0 {
		b = appendKey(b, "tasks")
		b = append(b, '[')
		for i := range e.Tasks {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendTask(b, &e.Tasks[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}
