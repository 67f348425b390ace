package ingest

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
	"mvcom/internal/obs"
)

// canonicalBodies are txs bodies as json.Marshal writes them: the
// recognizer must claim every one.
func canonicalBodies(t testing.TB) [][]byte {
	extreme := chain.Transaction{ID: math.MaxUint64, From: 0, To: 1 << 63, Amount: math.MaxUint64, Created: math.MinInt64}
	reqs := []txsRequest{
		{Txs: mkTxs(1, 0)},
		{Source: "gen-0", Txs: mkTxs(100, 7)},
		{Source: "a b~!#$%'()*+-./;=?@[]^_`{|}", Txs: []chain.Transaction{extreme, {Created: math.MaxInt64}, {}}},
		{Source: "empty", Txs: []chain.Transaction{}},
	}
	var out [][]byte
	for _, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestCountTxsClaimsCanonicalBodies(t *testing.T) {
	for _, body := range canonicalBodies(t) {
		var want txsRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		src, n, ok := countTxs(body)
		if !ok || string(src) != want.Source || n != len(want.Txs) {
			t.Fatalf("%.60s: countTxs = (%q, %d, %v), want (%q, %d, true)", body, src, n, ok, want.Source, len(want.Txs))
		}
		spaced := []byte(" \t\n" + strings.NewReplacer(",", " ,\r\n", ":", ": ").Replace(string(body)) + "\n")
		if _, n, ok := countTxs(spaced); !ok || n != len(want.Txs) {
			t.Fatalf("%.60s with whitespace between tokens: declined", body)
		}
	}
}

// txsNearMisses are bodies the recognizer declines although
// encoding/json may accept them; each goes to the decoder.
var txsNearMisses = []string{
	`{"TXS":[{"id":1}]}`,
	`{"txs":[{"ID":1}],"Source":"x"}`,
	`{"source":"g\u0065n","txs":[{"ID":1}]}`,
	`{"source":"gén","txs":[{"ID":1}]}`,
	`{"txs":[{"id":1}]}`,
	`{"txs":[null,{"ID":1}]}`,
	`{"txs":null}`,
	`{"source":null,"txs":[{"ID":1}]}`,
	`{"txs":[{"ID":-1}]}`,
	`{"txs":[{"ID":1.5}]}`,
	`{"txs":[{"ID":1e3}]}`,
	`{"txs":[{"ID":18446744073709551616}]}`,
	`{"txs":[{"Created":9223372036854775808}]}`,
	`{"txs":[{"Created":-9223372036854775809}]}`,
	`{"txs":[{"ID":01}]}`,
	`{"txs":[{"ID":"1"}]}`,
	`{"txs":[{"ID":1}],"txs":[{"ID":1},{"ID":2}]}`,
	`{"source":"a","source":"b","txs":[{"ID":1}]}`,
	`{"txs":[{"ID":1}]} trailing`,
	`{"txs":[{"ID":1}]}{}`,
	`{"txs":[{"ID":1}],"extra":0}`,
	`{"txs":[{"ID":1},]}`,
	`{"txs":[{"ID":1}],}`,
	`{"txs":[{"ID":1}]`,
	"\ufeff" + `{"txs":[{"ID":1}]}`,
}

func FuzzTxsBody(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, body := range txsNearMisses {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		src, n, ok := countTxs(body)
		if !ok {
			return
		}
		var req txsRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("claimed %q, but encoding/json refuses it: %v", body, err)
		}
		if string(src) != req.Source || n != len(req.Txs) {
			t.Fatalf("claimed %q as (%q, %d); encoding/json reads (%q, %d)", body, src, n, req.Source, len(req.Txs))
		}
	})
}

// TestTxsNearMissFallsBack: a body the recognizer declines is counted
// as a decode fallback and admitted exactly as encoding/json reads it
// (here case-insensitive keys: one transaction).
func TestTxsNearMissFallsBack(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		Obs:        obs.NewServeObserver(reg),
	})
	h := NewHandler(stream, DefaultMaxBody)
	for _, body := range txsNearMisses {
		if _, _, ok := countTxs([]byte(body)); ok {
			t.Errorf("recognizer claimed the near miss %q", body)
		}
	}
	post := func(body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txs", bytes.NewReader(body)))
		return rec.Code
	}
	if code := post([]byte(`{"TXS":[{"id":1}]}`)); code != http.StatusOK {
		t.Fatalf("near miss: status %d, want 200", code)
	}
	if st := stream.Stats(); st.Accepted != 1 || st.AcceptedTxs != 1 {
		t.Fatalf("near miss admitted as %+v, want one request of one transaction", st)
	}
	if got := reg.Counter("mvcom_serve_decode_fallback_total", "").Value(); got != 1 {
		t.Fatalf("decode fallbacks %d, want 1", got)
	}
	if code := post(canonicalBodies(t)[1]); code != http.StatusOK {
		t.Fatalf("canonical body: status %d, want 200", code)
	}
	if st := stream.Stats(); st.AcceptedTxs != 101 {
		t.Fatalf("canonical body admitted as %+v, want 100 more transactions", st)
	}
	if got := reg.Counter("mvcom_serve_decode_fallback_total", "").Value(); got != 1 {
		t.Fatalf("canonical body fell back: %d fallbacks", got)
	}
}

// TestTxsRequestAllocs bounds one canonical 100-transaction POST /txs
// through NewHandler, request and recorder included: the body is read
// into a pooled buffer and counted, never decoded into transactions
// (22 allocations; decoding them took 46).
func TestTxsRequestAllocs(t *testing.T) {
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		QueueTxs:   math.MaxInt,
	})
	h := NewHandler(stream, DefaultMaxBody)
	body := canonicalBodies(t)[1]
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/txs", rd))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	const bound = 28
	if allocs > bound {
		t.Fatalf("one canonical /txs request: %v allocs, want <= %d", allocs, bound)
	}
}
