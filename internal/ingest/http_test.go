package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvcom/internal/epoch"
)

// newTestServer wires a NetStream with tight admission knobs behind the
// HTTP handler: queue watermark 100 txs, 10 tx/s per source with burst
// 50, 4 KiB bodies.
func newTestServer(t *testing.T) (*httptest.Server, *NetStream, *fakeClock) {
	t.Helper()
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs:   100,
		Rate:       10,
		Burst:      50,
	})
	clock := newFakeClock()
	stream.buckets.now = clock.now
	ts := httptest.NewServer(NewHandler(stream, 4096))
	t.Cleanup(ts.Close)
	return ts, stream, clock
}

func postJSON(t *testing.T, url, source string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if source != "" {
		req.Header.Set(SourceHeader, source)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeAck(t *testing.T, resp *http.Response) ackResponse {
	t.Helper()
	var ack ackResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack
}

// TestHTTPAdmission is the admission table over the HTTP front end:
// accepted traffic, token-bucket sheds (429 + Retry-After), queue
// watermark sheds (429 + Retry-After), oversized bodies (413), invalid
// payloads (400), and drain (503).
func TestHTTPAdmission(t *testing.T) {
	ts, stream, clock := newTestServer(t)

	// Accepted single tx.
	resp := postJSON(t, ts.URL+"/tx", "alice", mkTxs(1, 0)[0])
	if resp.StatusCode != http.StatusOK || !decodeAck(t, resp).Accepted {
		t.Fatalf("single tx: status %d", resp.StatusCode)
	}

	// Accepted batch.
	resp = postJSON(t, ts.URL+"/txs", "alice", txsRequest{Txs: mkTxs(40, 100)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}

	// Token bucket: alice has spent 41 of burst 50 — a 10-tx batch tips
	// it over and sheds with Retry-After.
	resp = postJSON(t, ts.URL+"/txs", "alice", txsRequest{Txs: mkTxs(10, 200)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate shed: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("rate shed without Retry-After")
	}
	if ack := decodeAck(t, resp); ack.Reason != "rate" {
		t.Fatalf("rate shed reason %q", ack.Reason)
	}

	// A different source is unaffected...
	resp = postJSON(t, ts.URL+"/txs", "bob", txsRequest{Txs: mkTxs(50, 300)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's batch: status %d", resp.StatusCode)
	}

	// ...but the queue (91 txs) is near its 100-tx watermark now: a
	// fresh source's 10-tx batch tips it and sheds "queue".
	clock.advance(time.Hour) // rule out rate as the shed reason
	resp = postJSON(t, ts.URL+"/txs", "carol", txsRequest{Txs: mkTxs(10, 400)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue shed: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue shed without Retry-After")
	}
	if ack := decodeAck(t, resp); ack.Reason != "queue" {
		t.Fatalf("queue shed reason %q", ack.Reason)
	}
	// A batch that still fits is admitted.
	resp = postJSON(t, ts.URL+"/txs", "carol", txsRequest{Txs: mkTxs(9, 500)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fitting batch: status %d", resp.StatusCode)
	}

	// Oversized body: 413, counted as a "body" shed.
	big, err := http.NewRequest(http.MethodPost, ts.URL+"/txs",
		strings.NewReader(`{"txs":[`+strings.Repeat(`{"ID":1},`, 4096)+`{"ID":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	bigResp, err := http.DefaultClient.Do(big)
	if err != nil {
		t.Fatal(err)
	}
	defer bigResp.Body.Close()
	if bigResp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", bigResp.StatusCode)
	}

	// Malformed JSON: 400.
	bad, _ := http.NewRequest(http.MethodPost, ts.URL+"/tx", strings.NewReader("{not json"))
	badResp, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", badResp.StatusCode)
	}

	// Reports: accepted, then invalid committee.
	resp = postJSON(t, ts.URL+"/report", "shard-1", Report{Committee: 1, TxCount: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/report", "shard-1", Report{Committee: 99, TxCount: 5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid report: status %d, want 400", resp.StatusCode)
	}

	// Drain: 503.
	stream.Drain()
	resp = postJSON(t, ts.URL+"/tx", "alice", mkTxs(1, 600)[0])
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain shed: status %d, want 503", resp.StatusCode)
	}

	// Every request is accounted: accepted + shed == requests.
	st := stream.Stats()
	if st.Accepted+st.Reports+st.Shed() != st.Requests {
		t.Fatalf("request accounting leak: %+v", st)
	}
	if st.ShedRate != 1 || st.ShedQueue != 1 || st.ShedBody != 1 || st.ShedDrain != 1 || st.ShedInvalid != 2 {
		t.Fatalf("shed breakdown: %+v", st)
	}
}

// TestHTTPStats checks the stats endpoint round-trips the accounting
// snapshot.
func TestHTTPStats(t *testing.T) {
	ts, stream, _ := newTestServer(t)
	if reason := stream.Submit("x", mkTxs(5, 0)); reason != "" {
		t.Fatal(reason)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.AcceptedTxs != 5 || st.QueueTxs != 5 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestHTTPSourceFallback: without the source header, the peer host is
// the bucket source, so one hammering host cannot starve the others —
// but here both clients share the loopback host and therefore a bucket.
func TestHTTPSourceFallback(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/txs", "", txsRequest{Txs: mkTxs(25, uint64(i)*100)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, resp.StatusCode)
		}
	}
	// Burst 50 spent by the shared loopback bucket.
	resp := postJSON(t, ts.URL+"/txs", "", txsRequest{Txs: mkTxs(25, 1000)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shared-host bucket: status %d, want 429", resp.StatusCode)
	}
}
