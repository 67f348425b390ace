package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"

	"mvcom/internal/chain"
)

// DefaultMaxBody is the request-body cap applied when NewHandler gets
// maxBody <= 0.
const DefaultMaxBody = 1 << 20

// SourceHeader lets a client name its admission-bucket source; absent,
// the remote address's host is the source.
const SourceHeader = "X-MVCom-Source"

// retryAfterSeconds is the Retry-After hint sent with 429 responses:
// one epoch's worth of backoff is enough for the queue to flush.
const retryAfterSeconds = "1"

// txsRequest is a txs body: a transaction batch, optionally naming its
// source. Admission never reads that name (HTTP keys on SourceHeader or
// the peer host, TCP on the peer host); the field keeps encoding/json
// refusing a source that is not a string, as countTxs does.
type txsRequest struct {
	Source string              `json:"source,omitempty"`
	Txs    []chain.Transaction `json:"txs"`
}

// ackResponse is every ingest endpoint's reply body.
type ackResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// NewHandler returns the HTTP ingest front end for stream:
//
//	POST /txs     {"source": "...", "txs": [...]}
//	GET  /stats   accounting snapshot (ingest.Stats)
//
// Bodies above maxBody bytes (default DefaultMaxBody) are rejected with
// 413; admission sheds map to 429 (rate, queue; with Retry-After), 503
// (drain), and 400 (invalid).
func NewHandler(stream *NetStream, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /txs", func(w http.ResponseWriter, r *http.Request) {
		if n, ok := readTxs(w, r, stream, maxBody); ok {
			writeAck(w, stream.SubmitCount(sourceOf(r), n))
		}
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(stream.Stats())
	})
	return mux
}

// sourceOf picks the admission source: the explicit header, else the
// peer host (one bucket per client machine).
func sourceOf(r *http.Request) string {
	if src := r.Header.Get(SourceHeader); src != "" {
		return src
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// bodyBufs recycles the buffers POST /txs bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody is the largest body buffer kept for reuse: a canonical
// 100-transaction body is about 9 KiB, and a buffer grown toward the
// 1 MiB default cap is left to the collector rather than pinned.
const maxPooledBody = 64 << 10

// readTxs reads a POST /txs body under the cap and returns its
// transaction count. countTxs counts a canonical body without decoding
// it; any body it declines, or one over the cap, goes to encoding/json.
// Returns false when a response was already written.
func readTxs(w http.ResponseWriter, r *http.Request, stream *NetStream, maxBody int64) (int, bool) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			buf.Reset()
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(body); err == nil {
		if n, ok := countTxs(buf.Bytes()); ok {
			return n, true
		}
	}
	stream.cfg.Obs.DecodeFallback()
	var req txsRequest
	if !decodeJSON(w, io.MultiReader(bytes.NewReader(buf.Bytes()), body), stream, &req) {
		return 0, false
	}
	return len(req.Txs), true
}

// decodeJSON decodes a body capped by http.MaxBytesReader into v,
// answering 413 on an oversized body (counted as a "body" shed) and 400
// on malformed JSON. Returns false when a response was already written.
func decodeJSON(w http.ResponseWriter, body io.Reader, stream *NetStream, v any) bool {
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			stream.ShedBody()
			writeJSON(w, http.StatusRequestEntityTooLarge, ackResponse{Reason: "body"})
			return false
		}
		stream.ShedInvalid()
		writeJSON(w, http.StatusBadRequest, ackResponse{Reason: "invalid"})
		return false
	}
	return true
}

// writeAck maps an admission outcome ("" = accepted) to its HTTP shape.
func writeAck(w http.ResponseWriter, reason string) {
	switch reason {
	case "":
		writeJSON(w, http.StatusOK, ackResponse{Accepted: true})
	case "rate", "queue":
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusTooManyRequests, ackResponse{Reason: reason})
	case "drain":
		writeJSON(w, http.StatusServiceUnavailable, ackResponse{Reason: reason})
	default:
		writeJSON(w, http.StatusBadRequest, ackResponse{Reason: reason})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
