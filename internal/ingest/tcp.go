package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"sync"
)

// The framed-TCP front end speaks internal/dist's wire idiom: one JSON
// envelope per line, {"type": "...", "body": {...}}, answered line by
// line with an Ack. It exists for clients that hold a connection open
// and stream batches without per-request HTTP overhead. A connection is
// one admission source, its peer host: no frame can name another.

// Envelope is one framed request line.
type Envelope struct {
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// MsgTxs is the one envelope type: a transaction batch, with the body of
// POST /txs. Any other type is shed "invalid".
const MsgTxs = "txs"

// Ack is one framed response line.
type Ack struct {
	Accepted   bool   `json:"accepted"`
	Reason     string `json:"reason,omitempty"`
	RetryAfter int    `json:"retryAfterSeconds,omitempty"`
}

// TCPServer accepts framed ingest connections and feeds a NetStream.
type TCPServer struct {
	ln      net.Listener
	stream  *NetStream
	maxLine int

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
}

// ServeTCP starts serving framed ingest on ln. maxLine caps one
// envelope's bytes (<= 0 defaults to DefaultMaxBody); longer lines are
// shed with reason "body" and the connection is dropped (framing can no
// longer be trusted). Close stops the listener and every connection.
func ServeTCP(ln net.Listener, stream *NetStream, maxLine int) *TCPServer {
	if maxLine <= 0 {
		maxLine = DefaultMaxBody
	}
	s := &TCPServer{
		ln:      ln,
		stream:  stream,
		maxLine: maxLine,
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and closes every open connection.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	<-s.done
	return err
}

func (s *TCPServer) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	source := connSource(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), s.maxLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ack := Ack{Reason: s.admit(source, line)}
		ack.Accepted = ack.Reason == ""
		if ack.Reason == "rate" || ack.Reason == "queue" {
			ack.RetryAfter = 1
		}
		if err := enc.Encode(ack); err != nil {
			return
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		// The envelope overflowed the frame cap: count it as a body
		// shed, best-effort answer, and drop the connection — resyncing
		// a torn frame is not worth the complexity.
		s.stream.ShedBody()
		_ = enc.Encode(Ack{Reason: "body"})
	}
}

// admit routes one frame through admission under the connection's
// source. countTxsFrame counts a canonical txs line in the scanner's
// buffer; any line it declines is a decode fallback, and encoding/json
// reads it as an Envelope and then its body.
func (s *TCPServer) admit(source string, line []byte) string {
	if n, ok := countTxsFrame(line); ok {
		return s.stream.SubmitCount(source, n)
	}
	s.stream.cfg.Obs.DecodeFallback()
	var env Envelope
	var req txsRequest
	if json.Unmarshal(line, &env) != nil || env.Type != MsgTxs || json.Unmarshal(env.Body, &req) != nil {
		return s.stream.ShedInvalid()
	}
	return s.stream.SubmitCount(source, len(req.Txs))
}

// connSource buckets a connection by peer host.
func connSource(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}
