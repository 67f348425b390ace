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

// TestCountTxsClaimsCanonicalBodies: both recognizers claim what
// json.Marshal writes, a body and the txs frame around it, to the
// count encoding/json reads.
func TestCountTxsClaimsCanonicalBodies(t *testing.T) {
	frames := canonicalFrames(t)
	for i, body := range canonicalBodies(t) {
		var want txsRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		n, ok := countTxs(body)
		if !ok || n != len(want.Txs) {
			t.Fatalf("%.60s: countTxs = (%d, %v), want (%d, true)", body, n, ok, len(want.Txs))
		}
		spaced := []byte(" \t\n" + strings.NewReplacer(",", " ,\r\n", ":", ": ").Replace(string(body)) + "\n")
		if n, ok := countTxs(spaced); !ok || n != len(want.Txs) {
			t.Fatalf("%.60s with whitespace between tokens: declined", body)
		}
		if n, ok := countTxsFrame(frames[i]); !ok || n != len(want.Txs) {
			t.Fatalf("%.60s: countTxsFrame = (%d, %v), want (%d, true)", frames[i], n, ok, len(want.Txs))
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
		n, ok := countTxs(body)
		if !ok {
			return
		}
		var req txsRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("claimed %q, but encoding/json refuses it: %v", body, err)
		}
		if n != len(req.Txs) {
			t.Fatalf("claimed %q as %d transactions; encoding/json reads %d", body, n, len(req.Txs))
		}
	})
}

// canonicalFrames are canonicalBodies framed the way a client marshals a
// txs Envelope: the frame recognizer must claim every one.
func canonicalFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, body := range canonicalBodies(t) {
		b, err := json.Marshal(Envelope{Type: MsgTxs, Body: body})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// txsFrameNearMiss is a frame the recognizer declines, with the
// transaction count encoding/json reads from it (0: not a txs envelope
// it can decode, so shed "invalid").
type txsFrameNearMiss struct {
	name  string
	frame []byte
	txs   int
}

// txsFrameNearMisses wraps canonicalBodies(t)[1], a 100-transaction
// body, in frames a client could send that json.Marshal does not write.
func txsFrameNearMisses(t testing.TB) []txsFrameNearMiss {
	body := string(canonicalBodies(t)[1])
	canonical := `{"type":"txs","body":` + body + `}`
	return []txsFrameNearMiss{
		{"leading space", []byte(" " + canonical), 100},
		{"body before type", []byte(`{"body":` + body + `,"type":"txs"}`), 100},
		{"Type key", []byte(`{"Type":"txs","body":` + body + `}`), 100},
		{"escaped txs", []byte(`{"type":"t\u0078s","body":` + body + `}`), 100},
		{"trailing byte", []byte(canonical + " "), 100},
		{"missing final brace", []byte(canonical[:len(canonical)-1]), 0},
		{"final brace replaced by a space", []byte(canonical[:len(canonical)-1] + " "), 0},
	}
}

func FuzzTxsFrame(f *testing.F) {
	for _, frame := range canonicalFrames(f) {
		f.Add(frame)
	}
	for _, miss := range txsFrameNearMisses(f) {
		f.Add(miss.frame)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		n, ok := countTxsFrame(line)
		if !ok {
			return
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil || env.Type != MsgTxs {
			t.Fatalf("claimed %q, but encoding/json reads type %q, error %v", line, env.Type, err)
		}
		var req txsRequest
		if err := json.Unmarshal(env.Body, &req); err != nil {
			t.Fatalf("claimed %q, but encoding/json refuses its body: %v", line, err)
		}
		if n != len(req.Txs) {
			t.Fatalf("claimed %q as %d transactions; encoding/json reads %d", line, n, len(req.Txs))
		}
	})
}

// TestTxsNearMissFallsBack: a body the recognizer declines is counted
// as a decode fallback and admitted exactly as encoding/json reads it
// (here case-insensitive keys: one transaction).
func TestTxsNearMissFallsBack(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	stream := NewStream(StreamConfig{
		Params: epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		Obs:    obs.NewServeObserver(reg),
	})
	h := NewHandler(stream, DefaultMaxBody)
	for _, body := range txsNearMisses {
		if _, ok := countTxs([]byte(body)); ok {
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

// TestTCPNearMissFallsBack is TestTxsNearMissFallsBack over framed TCP:
// each near-miss frame is declined, counted once as a decode fallback,
// and admitted exactly as encoding/json reads it; a canonical frame is
// not counted.
func TestTCPNearMissFallsBack(t *testing.T) {
	reg := obs.NewRegistryWithTrace(obs.DefaultTraceCapacity)
	stream := NewStream(StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		QueueTxs: math.MaxInt,
		Obs:      obs.NewServeObserver(reg),
	})
	fallbacks := reg.Counter("mvcom_serve_decode_fallback_total", "")
	sendFrame := pipeFrames(t, stream)
	send := func(frame []byte) Ack {
		var ack Ack
		if reply := sendFrame(frame); json.Unmarshal(reply, &ack) != nil {
			t.Fatalf("bad ack %q", reply)
		}
		return ack
	}
	var admitted int64
	for i, miss := range txsFrameNearMisses(t) {
		if _, ok := countTxsFrame(miss.frame); ok {
			t.Fatalf("%s: recognizer claimed the near miss", miss.name)
		}
		ack := send(miss.frame)
		if want := miss.txs > 0; ack.Accepted != want || !want && ack.Reason != "invalid" {
			t.Fatalf("%s: ack %+v, want accepted %v", miss.name, ack, want)
		}
		admitted += int64(miss.txs)
		if st := stream.Stats(); st.Requests != int64(i+1) || st.AcceptedTxs != admitted {
			t.Fatalf("%s: admitted as %+v, want %d transactions in all", miss.name, st, admitted)
		}
		if got := fallbacks.Value(); got != int64(i+1) {
			t.Fatalf("%s: %d decode fallbacks after %d near misses", miss.name, got, i+1)
		}
	}
	before := fallbacks.Value()
	if ack := send(canonicalFrames(t)[1]); !ack.Accepted {
		t.Fatalf("canonical frame: ack %+v", ack)
	}
	if st := stream.Stats(); st.AcceptedTxs != admitted+100 {
		t.Fatalf("canonical frame admitted as %+v, want 100 more transactions", st)
	}
	if got := fallbacks.Value(); got != before {
		t.Fatalf("canonical frame fell back: %d fallbacks, want %d", got, before)
	}
}

// TestTxsRequestAllocs bounds one canonical 100-transaction POST /txs
// through NewHandler, request and recorder included: the body is read
// into a pooled buffer and counted, never decoded into transactions
// (22 allocations; decoding them took 46).
func TestTxsRequestAllocs(t *testing.T) {
	stream := NewStream(StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		QueueTxs: math.MaxInt,
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

// TestTCPFrameAllocs bounds one canonical 100-transaction frame through
// serveConn, from the client's write to its ack read: the frame is
// counted in the scanner's buffer, with no envelope decode and no copy
// of the body, and its ack encoded (1 allocation; decoding the envelope
// alone took 9). The bound leaves one more for the race detector, whose
// sync.Pool drops a quarter of the encoder states json.Encoder returns
// to it: 15 of 200 race runs read 2.
func TestTCPFrameAllocs(t *testing.T) {
	stream := NewStream(StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		QueueTxs: math.MaxInt,
	})
	send := pipeFrames(t, stream)
	frame := canonicalFrames(t)[1]
	accepted := []byte(`{"accepted":true}` + "\n")
	allocs := testing.AllocsPerRun(50, func() {
		if ack := send(frame); !bytes.Equal(ack, accepted) {
			t.Fatalf("ack %q", ack)
		}
	})
	const bound = 2
	if allocs > bound {
		t.Fatalf("one canonical frame: %v allocs, want <= %d", allocs, bound)
	}
}
