package ingest

import (
	"encoding/json"
	"errors"
	"net"
	"net/http"

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

// txsRequest is the POST /txs body: a transaction batch, optionally
// naming its source (the header wins when both are set).
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
//	POST /tx      one chain.Transaction
//	POST /txs     {"source": "...", "txs": [...]}
//	POST /report  {"committee": N, "txCount": N, "latency": S}
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
	mux.HandleFunc("POST /tx", func(w http.ResponseWriter, r *http.Request) {
		var tx chain.Transaction
		if !decodeBody(w, r, stream, maxBody, &tx) {
			return
		}
		writeAck(w, stream.Submit(sourceOf(r), []chain.Transaction{tx}))
	})
	mux.HandleFunc("POST /txs", func(w http.ResponseWriter, r *http.Request) {
		var req txsRequest
		if !decodeBody(w, r, stream, maxBody, &req) {
			return
		}
		src := sourceOf(r)
		if src == "" {
			src = req.Source
		}
		writeAck(w, stream.Submit(src, req.Txs))
	})
	mux.HandleFunc("POST /report", func(w http.ResponseWriter, r *http.Request) {
		var rep Report
		if !decodeBody(w, r, stream, maxBody, &rep) {
			return
		}
		writeAck(w, stream.SubmitReport(sourceOf(r), rep))
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

// decodeBody decodes a capped JSON body into v, answering 413 on an
// oversized body (counted as a "body" shed) and 400 on malformed JSON.
// Returns false when a response was already written.
func decodeBody(w http.ResponseWriter, r *http.Request, stream *NetStream, maxBody int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
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
