package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/ingest"
	"mvcom/internal/randx"
	"mvcom/internal/txgen"
)

// genInput is one generator's pre-built requests, cycled in order:
// wire bytes for the HTTP and TCP fronts, transaction batches for the
// in-process front.
type genInput struct {
	source  string
	wire    [][]byte
	batches [][]chain.Transaction
}

// txsBody mirrors the ingest POST /txs body and TCP "txs" envelope body.
type txsBody struct {
	Source string              `json:"source,omitempty"`
	Txs    []chain.Transaction `json:"txs"`
}

// buildInputs derives every generator's requests from seed: a txgen
// trace is split into one shard per generator, materialized, and cut
// into batchTxs-transaction requests encoded for f.
func buildInputs(seed int64, f front) ([]genInput, error) {
	rng := randx.New(seed)
	trace := txgen.Generate(rng, txgen.Config{Blocks: 64, MeanTxs: 800, MinTxs: 200, MaxTxs: 3000})
	shards, err := trace.IntoShards(rng, gens)
	if err != nil {
		return nil, err
	}
	out := make([]genInput, gens)
	for g := range out {
		in := &out[g]
		in.source = fmt.Sprintf("gen-%d", g)
		txs := trace.Transactions(shards[g], rng.Split())
		for i := 0; i+batchTxs <= len(txs); i += batchTxs {
			batch := txs[i : i+batchTxs]
			if f == frontDirect {
				in.batches = append(in.batches, batch)
				continue
			}
			body, err := json.Marshal(txsBody{Source: in.source, Txs: batch})
			if err != nil {
				return nil, err
			}
			if f == frontHTTP {
				in.wire = append(in.wire, fmt.Appendf(nil,
					"POST /txs HTTP/1.1\r\nHost: mvcom\r\nContent-Type: application/json\r\n%s: %s\r\nContent-Length: %d\r\n\r\n%s",
					ingest.SourceHeader, in.source, len(body), body))
				continue
			}
			frame, err := json.Marshal(ingest.Envelope{Type: ingest.MsgTxs, Body: body})
			if err != nil {
				return nil, err
			}
			in.wire = append(in.wire, append(frame, '\n'))
		}
		if len(in.wire) == 0 && len(in.batches) == 0 {
			return nil, fmt.Errorf("seed %d: generator %d has under %d transactions", seed, g, batchTxs)
		}
	}
	return out, nil
}

// outcome is what one request came back with.
type outcome uint8

const (
	accepted outcome = iota
	refused          // an admission shed answered by the plane
	failed           // a transport error or an unexpected answer
)

// reqRecord is one request's timeline on the run clock. due is when the
// open loop scheduled it.
type reqRecord struct {
	due, sent, ack time.Duration
	outcome        outcome
}

// sender issues the i-th pre-built request and reads its ack.
type sender interface {
	send(i int) (outcome, error)
	close()
}

// ackOutcome maps an ingest ack to an outcome: refusals carry one of
// the admission shed reasons.
func ackOutcome(ack ingest.Ack) outcome {
	switch {
	case ack.Accepted:
		return accepted
	case ack.Reason == "rate" || ack.Reason == "queue":
		return refused
	}
	return failed
}

// httpSender writes pre-encoded HTTP/1.1 requests on one keep-alive
// connection.
type httpSender struct {
	conn net.Conn
	br   *bufio.Reader
	wire [][]byte
}

func (s *httpSender) send(i int) (outcome, error) {
	if _, err := s.conn.Write(s.wire[i%len(s.wire)]); err != nil {
		return failed, err
	}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		return failed, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return failed, err
	}
	var ack ingest.Ack
	if err := json.Unmarshal(body, &ack); err != nil {
		return failed, fmt.Errorf("ack (status %d): %w", resp.StatusCode, err)
	}
	if o := ackOutcome(ack); o != failed && (resp.StatusCode == http.StatusOK) == (o == accepted) {
		return o, nil
	}
	return failed, fmt.Errorf("unexpected answer: status %d, %s", resp.StatusCode, body)
}

func (s *httpSender) close() { s.conn.Close() }

// tcpSender writes pre-encoded frames on one connection and reads one
// ack line per frame.
type tcpSender struct {
	conn net.Conn
	br   *bufio.Reader
	wire [][]byte
}

func (s *tcpSender) send(i int) (outcome, error) {
	if _, err := s.conn.Write(s.wire[i%len(s.wire)]); err != nil {
		return failed, err
	}
	line, err := s.br.ReadSlice('\n')
	if err != nil {
		return failed, err
	}
	var ack ingest.Ack
	if err := json.Unmarshal(line, &ack); err != nil {
		return failed, fmt.Errorf("ack %q: %w", line, err)
	}
	if o := ackOutcome(ack); o != failed {
		return o, nil
	}
	return failed, fmt.Errorf("unexpected ack %q", line)
}

func (s *tcpSender) close() { s.conn.Close() }

// directSender calls Submit in process; pr, when traced, times it.
type directSender struct {
	stream  *ingest.NetStream
	in      genInput
	pr      *probe
	submits *layerTimer
}

func (s *directSender) send(i int) (outcome, error) {
	done := s.pr.admit("submit", s.submits)
	reason := s.stream.Submit(s.in.source, s.in.batches[i%len(s.in.batches)])
	done()
	return ackOutcome(ingest.Ack{Accepted: reason == "", Reason: reason}), nil
}

func (s *directSender) close() {}

// dial opens generator g's sender against the plane.
func dial(pl *plane, f front, in genInput) (sender, error) {
	switch f {
	case frontHTTP, frontTCP:
		addr := pl.httpAddr
		if f == frontTCP {
			addr = pl.tcpSrv.Addr().String()
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		br := bufio.NewReaderSize(conn, 4096)
		if f == frontHTTP {
			return &httpSender{conn: conn, br: br, wire: in.wire}, nil
		}
		return &tcpSender{conn: conn, br: br, wire: in.wire}, nil
	}
	return &directSender{stream: pl.stream, in: in, pr: pl.probe, submits: pl.probe.timer(layerSubmit)}, nil
}

// generate drives s from start until end on the run clock as an open
// loop: its i-th request is due at start+offset+i·interval whether or
// not earlier ones have returned. It appends each request to recs and
// stops at the first transport error, which it returns after recording
// the failed request.
func generate(clk clock, s sender, recs []reqRecord, start, end, offset, interval time.Duration) ([]reqRecord, error) {
	for i := 0; ; i++ {
		due := start + offset + time.Duration(i)*interval
		if due >= end {
			return recs, nil
		}
		sleepUntil(clk, due)
		sent := clk.now()
		o, err := s.send(i)
		recs = append(recs, reqRecord{due: due, sent: sent, ack: clk.now(), outcome: o})
		if err != nil {
			return recs, err
		}
	}
}

// sleepUntil blocks until the run clock reaches t. time.Sleep is not
// used because a Go scheduler with nothing to run waits in the
// netpoller with a millisecond timeout, which made open-loop requests
// a median 0.5 ms late; nanosleep blocks only this goroutine's thread
// and wakes within about 0.1 ms. Signals the runtime sends the thread
// cut a nanosleep short, hence the loop.
func sleepUntil(clk clock, t time.Duration) {
	for {
		left := t - clk.now()
		if left <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(left))
		_ = syscall.Nanosleep(&ts, nil) // an early return is retried
	}
}
