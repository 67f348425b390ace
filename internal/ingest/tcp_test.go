package ingest

import (
	"bufio"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"mvcom/internal/epoch"
)

func newTCPTestServer(t *testing.T) (*TCPServer, *NetStream) {
	t.Helper()
	stream := NewStream(StreamConfig{
		Committees: 4,
		Params:     epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs:   100,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := ServeTCP(ln, stream, 4096)
	t.Cleanup(func() { _ = server.Close() })
	return server, stream
}

// TestTCPFramedIngest drives the framed front end through a client:
// accepted batches and reports, queue watermark sheds with a retry
// hint, and unknown/invalid envelopes.
func TestTCPFramedIngest(t *testing.T) {
	server, stream := newTCPTestServer(t)
	c, err := DialTCP(server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ack, err := c.SubmitTxs("alice", mkTxs(60, 0))
	if err != nil || !ack.Accepted {
		t.Fatalf("batch: ack %+v err %v", ack, err)
	}
	ack, err = c.SubmitReport(Report{Committee: 2, TxCount: 9})
	if err != nil || !ack.Accepted {
		t.Fatalf("report: ack %+v err %v", ack, err)
	}
	// Watermark: 60 queued, another 60 overflows the 100-tx mark.
	ack, err = c.SubmitTxs("alice", mkTxs(60, 100))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted || ack.Reason != "queue" || ack.RetryAfter <= 0 {
		t.Fatalf("watermark ack: %+v", ack)
	}
	// Invalid report committee.
	ack, err = c.SubmitReport(Report{Committee: 77, TxCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted || ack.Reason != "invalid" {
		t.Fatalf("invalid report ack: %+v", ack)
	}

	st := stream.Stats()
	if st.AcceptedTxs != 60 || st.ReportTxs != 9 || st.ShedQueue != 1 || st.ShedInvalid != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTCPRawFrames exercises the wire protocol below the client helper:
// unknown envelope types and non-JSON lines are shed "invalid", and an
// oversized frame is shed "body" before the connection drops.
func TestTCPRawFrames(t *testing.T) {
	server, stream := newTCPTestServer(t)

	conn, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(line string) Ack {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var ack Ack
		if err := json.Unmarshal(reply, &ack); err != nil {
			t.Fatal(err)
		}
		return ack
	}

	if ack := send(`{"type":"bogus"}`); ack.Accepted || ack.Reason != "invalid" {
		t.Fatalf("unknown type: %+v", ack)
	}
	if ack := send(`this is not json`); ack.Accepted || ack.Reason != "invalid" {
		t.Fatalf("non-JSON line: %+v", ack)
	}

	// Oversized frame on a fresh connection: "body" shed, then EOF.
	conn2, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	big := `{"type":"txs","body":{"txs":[` + strings.Repeat(`{"ID":1},`, 2000) + `{"ID":2}]}}`
	if len(big) <= 4096 {
		t.Fatalf("test frame not oversized: %d bytes", len(big))
	}
	if _, err := conn2.Write([]byte(big + "\n")); err != nil {
		t.Fatal(err)
	}
	r2 := bufio.NewReader(conn2)
	reply, err := r2.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var ack Ack
	if err := json.Unmarshal(reply, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Accepted || ack.Reason != "body" {
		t.Fatalf("oversized frame ack: %+v", ack)
	}
	if _, err := r2.ReadBytes('\n'); err == nil {
		t.Fatal("connection survived a torn frame")
	}

	st := stream.Stats()
	if st.ShedInvalid != 2 || st.ShedBody != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
