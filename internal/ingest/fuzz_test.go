package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvcom/internal/epoch"
)

// fuzzMaxBody caps one fuzzed frame or body. It equals the scanner's
// initial buffer, so a frame is too long exactly when it and its
// newline exceed it.
const fuzzMaxBody = 4096

// fuzzStream is the plane a fuzz input runs against: a small queue
// watermark and block capacity the inputs can reach, and rate limiting
// off so every decoded request reaches the books.
func fuzzStream() *NetStream {
	return NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1000, Nmin: 1},
		QueueTxs:   100,
	})
}

func mustJSON(f *testing.F, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// checkBooks asserts the invariants no input may break: every request
// is accepted or shed, the settlement identity is exact, the queue
// stays under its watermark, and declared counts never go negative.
func checkBooks(t *testing.T, s *NetStream) {
	t.Helper()
	st := s.Stats()
	if st.Accepted+st.Reports+st.Shed() != st.Requests {
		t.Fatalf("request accounting leak: %+v", st)
	}
	if gap := st.AccountingGap(); gap != 0 {
		t.Fatalf("accounting gap %d: %+v", gap, st)
	}
	if st.QueueTxs > int64(s.cfg.QueueTxs) {
		t.Fatalf("queue %d past its watermark %d", st.QueueTxs, s.cfg.QueueTxs)
	}
	if st.ReportTxs < 0 || st.PendingReportTxs < 0 {
		t.Fatalf("negative declared count: %+v", st)
	}
}

// FuzzTCPFrames feeds arbitrary bytes, split into frames by newline, to
// one framed-TCP connection. Every non-blank frame must get one ack; a
// frame over the cap gets a "body" ack and ends the connection.
func FuzzTCPFrames(f *testing.F) {
	frame := func(typ string, body any) []byte {
		return mustJSON(f, Envelope{Type: typ, Body: mustJSON(f, body)})
	}
	lines := func(frames ...[]byte) []byte { return bytes.Join(frames, []byte("\n")) }
	// TestTCPFramedIngest's conversation, and TestTCPRawFrames' frames.
	f.Add(lines(
		frame(MsgTxs, txsRequest{Source: "alice", Txs: mkTxs(60, 0)}),
		frame(MsgReport, Report{Committee: 2, TxCount: 9}),
		frame(MsgTxs, txsRequest{Source: "alice", Txs: mkTxs(60, 100)}),
		frame(MsgReport, Report{Committee: 77, TxCount: 1}),
	))
	// A canonical txs body the recognizer counts, and a near miss
	// (lower-case keys) it leaves to encoding/json.
	f.Add(lines(
		frame(MsgTxs, txsRequest{Source: "gen-0", Txs: mkTxs(3, 0)}),
		[]byte(`{"type":"txs","body":{"TXS":[{"id":1}]}}`),
	))
	f.Add([]byte(`{"type":"bogus"}` + "\nthis is not json\n\r\n"))
	f.Add([]byte(`{"type":"txs","body":{"txs":[` + strings.Repeat(`{"ID":1},`, 500) + `{"ID":2}]}}`))
	// Two declarations whose sum overflows an int64 counter.
	overflow := frame(MsgReport, Report{Committee: 0, TxCount: 1 << 62})
	f.Add(lines(overflow, overflow))
	f.Fuzz(func(t *testing.T, in []byte) {
		stream := fuzzStream()
		srv := &TCPServer{stream: stream, maxLine: fuzzMaxBody}
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serveConn(server)
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			// The copy keeps the fuzzer's input intact; the write fails
			// once the server hangs up on an oversized frame.
			_, _ = client.Write(append(in[:len(in):len(in)], '\n'))
		}()

		if err := client.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(client)
		for _, frame := range bytes.Split(in, []byte("\n")) {
			if len(bytes.TrimSuffix(frame, []byte("\r"))) == 0 {
				continue // blank lines are skipped, not requests
			}
			reply, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("frame %.40q got no answer: %v", frame, err)
			}
			var ack Ack
			if err := json.Unmarshal(reply, &ack); err != nil {
				t.Fatalf("frame %.40q: bad ack %q: %v", frame, reply, err)
			}
			if ack.Accepted != (ack.Reason == "") {
				t.Fatalf("frame %.40q: inconsistent ack %+v", frame, ack)
			}
			if len(frame)+1 > fuzzMaxBody {
				if ack.Reason != "body" {
					t.Fatalf("oversized frame acked %+v", ack)
				}
				if _, err := r.ReadBytes('\n'); err != io.EOF {
					t.Fatalf("connection survived an oversized frame: %v", err)
				}
				break
			}
		}
		_ = client.Close()
		<-wrote
		<-served
		checkBooks(t, stream)
	})
}

// FuzzHTTPIngest posts one body to /tx, /txs or /report, twice, so the
// second request meets the queue and declarations the first left.
// Every request must get a JSON ack whose status matches its reason.
func FuzzHTTPIngest(f *testing.F) {
	// TestHTTPAdmission's bodies, a canonical txs body and a near miss
	// the recognizer leaves to encoding/json, and a declaration that
	// overflows an int64 counter when posted twice.
	f.Add(uint8(0), mustJSON(f, mkTxs(1, 0)[0]))
	f.Add(uint8(1), mustJSON(f, txsRequest{Txs: mkTxs(40, 100)}))
	f.Add(uint8(1), []byte(`{"txs":[`+strings.Repeat(`{"ID":1},`, 600)+`{"ID":2}]}`))
	f.Add(uint8(1), mustJSON(f, txsRequest{Source: "gen-0", Txs: mkTxs(3, 0)}))
	f.Add(uint8(1), []byte(`{"TXS":[{"id":1}]}`))
	f.Add(uint8(0), []byte("{not json"))
	f.Add(uint8(2), mustJSON(f, Report{Committee: 1, TxCount: 5}))
	f.Add(uint8(2), mustJSON(f, Report{Committee: 99, TxCount: 5}))
	f.Add(uint8(2), mustJSON(f, Report{Committee: 0, TxCount: 1 << 62}))
	paths := [...]string{"/tx", "/txs", "/report"}
	status := map[string]int{
		"": http.StatusOK, "rate": http.StatusTooManyRequests, "queue": http.StatusTooManyRequests,
		"body": http.StatusRequestEntityTooLarge, "drain": http.StatusServiceUnavailable, "invalid": http.StatusBadRequest,
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		stream := fuzzStream()
		h := NewHandler(stream, fuzzMaxBody)
		for i := 0; i < 2; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, paths[int(path)%len(paths)], bytes.NewReader(body)))
			var ack ackResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("request %d: status %d, bad ack %q: %v", i, rec.Code, rec.Body.Bytes(), err)
			}
			want, known := status[ack.Reason]
			if !known || rec.Code != want || ack.Accepted != (ack.Reason == "") {
				t.Fatalf("request %d: status %d with ack %+v", i, rec.Code, ack)
			}
			checkBooks(t, stream)
		}
	})
}
