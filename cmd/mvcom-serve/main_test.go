package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeSwarmEndToEnd boots a serve process in-process, points the
// swarm mode at it at 2x the admitted per-source rate, and demands the
// health gates pass: shed traffic counted, accepted traffic committed,
// books settled after the duration-triggered graceful drain.
func TestServeSwarmEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end serve skipped in -short")
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- run([]string{
			"-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-committees", "4", "-committee-size", "4",
			"-capacity", "200000", "-rate", "500", "-burst", "100",
			"-queue-cap", "4000", "-min-batch", "200", "-max-wait", "50ms",
			"-se-iters", "300", "-duration", "2s",
			"-gate", "-expect-shed", "-q",
		})
	}()

	var addr string
	for i := 0; i < 200 && addr == ""; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("server never published its ingest address")
	}

	// Each client offers 2x the per-source admitted rate.
	if err := run([]string{
		"-swarm", "-target", "http://" + addr,
		"-swarm-clients", "2", "-swarm-rate", "1000", "-swarm-batch", "50",
		"-swarm-duration", "1500ms", "-q",
	}); err != nil {
		t.Fatalf("swarm: %v", err)
	}

	select {
	case err := <-srvErr:
		if err != nil {
			t.Fatalf("server gates: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("server did not drain and exit")
	}
}

func TestRunBadInputs(t *testing.T) {
	if err := run([]string{"-swarm"}); err == nil {
		t.Fatal("swarm without -target accepted")
	}
	if err := run([]string{"-capacity", "0", "-epochs", "1"}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	// The default 65 536-tx queue over 8 committees flushes 8 192-tx
	// shards, which a 5 000-tx block cannot hold.
	if err := run([]string{"-capacity", "5000", "-epochs", "1"}); err == nil || !strings.Contains(err.Error(), "queue-cap") {
		t.Fatalf("queue that cannot fit a block accepted: %v", err)
	}
	if err := run([]string{"-not-a-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
