package swarm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/ingest"
)

// httpAck mirrors the ingest front ends' reply body.
type httpAck struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// HTTPTarget submits over the mvcom-serve HTTP front end.
type HTTPTarget struct {
	base   string
	client *http.Client
}

// Dial returns an HTTP target for a base URL like
// "http://127.0.0.1:8080".
func Dial(base string) *HTTPTarget {
	return &HTTPTarget{
		base:   base,
		client: &http.Client{Timeout: 10 * time.Second},
	}
}

func (t *HTTPTarget) post(path, source string, v any) (bool, string, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return false, "", err
	}
	req, err := http.NewRequest(http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return false, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ingest.SourceHeader, source)
	resp, err := t.client.Do(req)
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	var ack httpAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return false, "", fmt.Errorf("decode ack (status %d): %w", resp.StatusCode, err)
	}
	return ack.Accepted, ack.Reason, nil
}

// SubmitTxs implements Submitter.
func (t *HTTPTarget) SubmitTxs(source string, txs []chain.Transaction) (bool, string, error) {
	return t.post("/txs", source, struct {
		Source string              `json:"source,omitempty"`
		Txs    []chain.Transaction `json:"txs"`
	}{Source: source, Txs: txs})
}

// SubmitReport implements Submitter.
func (t *HTTPTarget) SubmitReport(source string, rep ingest.Report) (bool, string, error) {
	return t.post("/report", source, rep)
}

// Direct submits straight into an in-process NetStream — no transport,
// no sockets. Tests and the single-binary soak mode use it.
type Direct struct{ Stream *ingest.NetStream }

// SubmitTxs implements Submitter.
func (d Direct) SubmitTxs(source string, txs []chain.Transaction) (bool, string, error) {
	reason := d.Stream.Submit(source, txs)
	return reason == "", reason, nil
}

// SubmitReport implements Submitter.
func (d Direct) SubmitReport(source string, rep ingest.Report) (bool, string, error) {
	reason := d.Stream.SubmitReport(source, rep)
	return reason == "", reason, nil
}
