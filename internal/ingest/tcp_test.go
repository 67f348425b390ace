package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"mvcom/internal/chain"
	"mvcom/internal/epoch"
)

func newTCPTestServer(t *testing.T) (*TCPServer, *NetStream) {
	t.Helper()
	stream := NewStream(StreamConfig{
		Params:   epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		QueueTxs: 100,
	})
	return serveTCP(t, stream, 4096), stream
}

// serveTCP serves framed ingest into stream on a loopback port, with
// frames capped at maxLine bytes, until the test ends.
func serveTCP(t *testing.T, stream *NetStream, maxLine int) *TCPServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := ServeTCP(ln, stream, maxLine)
	t.Cleanup(func() { _ = server.Close() })
	return server
}

// TestTCPFramedIngest drives the framed front end through a client:
// accepted batches, queue watermark sheds with a retry hint, and a
// batch with no transactions.
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
	// Watermark: 60 queued, another 60 overflows the 100-tx mark.
	ack, err = c.SubmitTxs("alice", mkTxs(60, 100))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted || ack.Reason != "queue" || ack.RetryAfter <= 0 {
		t.Fatalf("watermark ack: %+v", ack)
	}
	// A batch without transactions.
	ack, err = c.SubmitTxs("alice", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted || ack.Reason != "invalid" {
		t.Fatalf("empty batch ack: %+v", ack)
	}

	st := stream.Stats()
	if st.AcceptedTxs != 60 || st.ShedQueue != 1 || st.ShedInvalid != 1 {
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

// Client is the dial side of the framed front end in these tests: it
// streams batches over one connection.
type Client struct {
	conn net.Conn
	enc  *json.Encoder
	sc   *bufio.Scanner
}

// DialTCP connects a framed ingest client.
func DialTCP(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), DefaultMaxBody)
	return &Client{conn: conn, enc: json.NewEncoder(conn), sc: sc}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// send frames one envelope and reads its ack.
func (c *Client) send(typ string, body any) (Ack, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return Ack{}, err
	}
	if err := c.enc.Encode(Envelope{Type: typ, Body: raw}); err != nil {
		return Ack{}, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Ack{}, err
		}
		return Ack{}, errors.New("ingest: connection closed before ack")
	}
	var ack Ack
	if err := json.Unmarshal(c.sc.Bytes(), &ack); err != nil {
		return Ack{}, err
	}
	return ack, nil
}

// SubmitTxs streams one transaction batch and returns the server's ack.
func (c *Client) SubmitTxs(source string, txs []chain.Transaction) (Ack, error) {
	return c.send(MsgTxs, txsRequest{Source: source, Txs: txs})
}

// TestTCPConnectionIsOneSource: a connection's frames share the peer's
// token bucket whatever source their bodies name, so rotating names on
// one connection earns no more than one bucket's burst.
func TestTCPConnectionIsOneSource(t *testing.T) {
	stream := NewStream(StreamConfig{
		Params: epoch.EpochParams{Alpha: 1.5, Capacity: 1 << 30, Nmin: 1},
		Rate:   100,
		Burst:  100,
	})
	stream.buckets.now = newFakeClock().now // no refill between frames
	c, err := DialTCP(serveTCP(t, stream, DefaultMaxBody).Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admitted := 0
	for i := 0; i < 10; i++ {
		ack, err := c.SubmitTxs(fmt.Sprintf("rotated-%d", i), mkTxs(100, uint64(i)*100))
		if err != nil {
			t.Fatal(err)
		}
		if ack.Accepted {
			admitted++
		} else if ack.Reason != "rate" {
			t.Fatalf("frame %d: ack %+v, want a rate shed", i, ack)
		}
	}
	if admitted != 1 {
		t.Fatalf("%d of 10 frames under rotated sources admitted, want 1", admitted)
	}
	if st := stream.Stats(); st.AcceptedTxs != 100 || st.ShedRate != 9 {
		t.Fatalf("stats: %+v", st)
	}
}
