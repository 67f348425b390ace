package ingest

import "math"

// countTxs recognizes the canonical txs body, the bytes json.Marshal
// writes for a txsRequest, and returns its transaction count without
// building a chain.Transaction: the queue is a count, so the
// transactions themselves would be thrown away. It claims a body (the
// second result) only when it is an object whose keys are "source",
// holding a plain string (printable ASCII, no escapes), and "txs",
// holding an array of objects whose keys are among ID, From, To, Amount
// and Created, each an integer literal in its field's range; each
// top-level key at most once, JSON whitespace between tokens, and
// nothing after the object. The source is checked but not returned:
// admission keys on the transport, never on a name the body gives.
//
// A body countTxs declines goes to encoding/json, whose verdict is the
// contract: whenever countTxs claims a body, json.Decoder decodes it
// into a txsRequest without error, to the same count (FuzzTxsBody).
func countTxs(b []byte) (int, bool) {
	s := txsScanner{b: b}
	if !s.eat('{') {
		return 0, false
	}
	n, haveSource, haveTxs := 0, false, false
	for !s.eat('}') {
		if (haveSource || haveTxs) && !s.eat(',') {
			return 0, false
		}
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return 0, false
		}
		switch string(key) {
		case "source":
			if haveSource {
				return 0, false
			}
			haveSource = true
			_, ok = s.str()
		case "txs":
			if haveTxs {
				return 0, false
			}
			haveTxs = true
			n, ok = s.txs()
		default:
			ok = false
		}
		if !ok {
			return 0, false
		}
	}
	s.ws()
	if s.i != len(b) {
		return 0, false
	}
	return n, true
}

// txsFramePrefix is how json.Marshal opens a txs Envelope.
const txsFramePrefix = `{"type":"txs","body":`

// countTxsFrame recognizes the line json.Marshal writes for a txs
// Envelope, txsFramePrefix then a body countTxs claims then a final
// '}', and counts its body where it lies, without decoding the envelope
// or copying the body out. Any other line is declined, and the same
// one-sided contract holds: whenever countTxsFrame claims a line,
// json.Unmarshal decodes it into an Envelope of type MsgTxs whose body
// decodes into a txsRequest of the same count (FuzzTxsFrame).
func countTxsFrame(line []byte) (int, bool) {
	p := len(txsFramePrefix)
	if len(line) <= p || string(line[:p]) != txsFramePrefix || line[len(line)-1] != '}' {
		return 0, false
	}
	return countTxs(line[p : len(line)-1])
}

// txsScanner walks a txs body for countTxs; every method skips the JSON
// whitespace before its token.
type txsScanner struct {
	b []byte
	i int
}

func (s *txsScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes the byte c.
func (s *txsScanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents.
func (s *txsScanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// txs consumes an array of transaction objects and returns its length.
func (s *txsScanner) txs() (int, bool) {
	if !s.eat('[') {
		return 0, false
	}
	if s.eat(']') {
		return 0, true
	}
	for n := 1; ; n++ {
		if !s.tx() {
			return 0, false
		}
		if s.eat(']') {
			return n, true
		}
		if !s.eat(',') {
			return 0, false
		}
	}
}

// tx consumes one chain.Transaction object: ID, From, To and Amount are
// uint64 and Created a time.Duration (int64).
func (s *txsScanner) tx() bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') {
			return false
		}
		switch string(key) {
		case "ID", "From", "To", "Amount":
			ok = s.integer(false)
		case "Created":
			ok = s.integer(true)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// integer consumes a JSON integer literal (no leading zero, fraction or
// exponent) in the range of uint64, or of int64 when signed.
func (s *txsScanner) integer(signed bool) bool {
	s.ws()
	neg := signed && s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		d := uint64(s.b[s.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return false
		}
		v = v*10 + d
	}
	switch digits := s.i - start; {
	case digits == 0 || digits > 1 && s.b[start] == '0':
		return false
	case neg:
		return v <= 1<<63
	case signed:
		return v <= math.MaxInt64
	}
	return true
}
