package procharness

import (
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvcom/internal/faultinject"
)

// sh builds a spec that runs a shell snippet — the tests' stand-in for
// real cluster binaries.
func sh(name, script string) Spec {
	return Spec{Name: name, Path: shPath(), Args: []string{"-c", script}}
}

func shPath() string {
	p, err := exec.LookPath("sh")
	if err != nil {
		return "/bin/sh"
	}
	return p
}

func newTestHarness(t *testing.T, opts Options) *Harness {
	t.Helper()
	h := New(opts)
	t.Cleanup(func() {
		if err := h.Close(); err != nil {
			t.Errorf("harness close: %v", err)
		}
	})
	return h
}

func TestStartWaitExitAndExitCode(t *testing.T) {
	h := newTestHarness(t, Options{})
	if err := h.Define(sh("ok", "exit 0")); err != nil {
		t.Fatal(err)
	}
	if err := h.Define(sh("bad", "exit 3")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("ok"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("bad"); err != nil {
		t.Fatal(err)
	}
	if code, err := h.WaitExit("ok", 5*time.Second); err != nil || code != 0 {
		t.Fatalf("ok exit = %d, %v", code, err)
	}
	if code, err := h.WaitExit("bad", 5*time.Second); err != nil || code != 3 {
		t.Fatalf("bad exit = %d, %v", code, err)
	}
}

func TestReadinessCaptureGroups(t *testing.T) {
	h := newTestHarness(t, Options{})
	spec := sh("web", `echo "listening on 127.0.0.1:4567"; sleep 30`)
	spec.ReadyLog = `listening on ([0-9.]+):([0-9]+)`
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("web"); err != nil {
		t.Fatal(err)
	}
	m, err := h.WaitReady("web")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[1] != "127.0.0.1" || m[2] != "4567" {
		t.Fatalf("capture groups %v", m)
	}
}

func TestReadinessTimeout(t *testing.T) {
	h := newTestHarness(t, Options{})
	spec := sh("mute", "sleep 30")
	spec.ReadyLog = "never printed"
	spec.ReadyTimeout = 200 * time.Millisecond
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("mute"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := h.WaitReady("mute"); err == nil {
		t.Fatal("readiness probe passed without any output")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("timeout took %v, want ~200ms", el)
	}
}

func TestReadinessFailsFastOnEarlyExit(t *testing.T) {
	h := newTestHarness(t, Options{})
	spec := sh("crash", `echo "boot"; exit 1`)
	spec.ReadyLog = "never printed"
	spec.ReadyTimeout = 10 * time.Second
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("crash"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := h.WaitReady("crash")
	if err == nil {
		t.Fatal("readiness passed on a crashed process")
	}
	if !strings.Contains(err.Error(), "exited") {
		t.Fatalf("error %v does not mention the exit", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("early exit detection took %v, should not wait out the 10s timeout", el)
	}
}

func TestKillRestartFreshPID(t *testing.T) {
	h := newTestHarness(t, Options{})
	spec := sh("w", `echo up; sleep 60`)
	spec.ReadyLog = "up"
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	p0, err := h.Start("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitReady("w"); err != nil {
		t.Fatal(err)
	}
	pid0 := p0.PID()
	p1, err := h.Restart("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitReady("w"); err != nil {
		t.Fatal(err)
	}
	if done, code := p0.Exited(); !done || code != -1 {
		t.Fatalf("old incarnation exited=%v code=%d, want reaped with signal code -1", done, code)
	}
	if !p0.KilledByHarness() {
		t.Fatal("old incarnation not marked harness-killed")
	}
	if p1.PID() == pid0 {
		t.Fatalf("restart reused pid %d", pid0)
	}
	if p1.Incarnation != 1 {
		t.Fatalf("incarnation = %d, want 1", p1.Incarnation)
	}
	if got := len(h.Procs()); got != 2 {
		t.Fatalf("history has %d incarnations, want 2", got)
	}
}

func TestOrphanReapingOnClose(t *testing.T) {
	h := New(Options{})
	// The shell backgrounds a grandchild and prints its pid: killing
	// only the direct child would leak it; killing the process group
	// must take both.
	if err := h.Define(sh("tree", `sleep 60 & echo "grandchild $!"; sleep 60`)); err != nil {
		t.Fatal(err)
	}
	p, err := h.Start("tree")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.WaitLog(`grandchild ([0-9]+)`, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	grandchild, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	child := p.PID()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Alive() {
		t.Fatalf("child %d still alive after Close", child)
	}
	// The grandchild shares the process group, so group-kill must have
	// taken it as well. Give the kernel a beat to finish the teardown.
	deadline := time.Now().Add(2 * time.Second)
	for pidAlive(grandchild) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if pidAlive(grandchild) {
		t.Fatalf("grandchild %d leaked past Close", grandchild)
	}
	// Close is idempotent and the harness refuses new work.
	if err := h.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := h.Start("tree"); err == nil {
		t.Fatal("start succeeded on a closed harness")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	h := newTestHarness(t, Options{})
	if err := h.Define(sh("a", "sleep 60")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("a"); err == nil {
		t.Fatal("second start of a live process succeeded")
	}
	if live := h.Live(); len(live) != 1 || live[0] != "a" {
		t.Fatalf("live = %v", live)
	}
}

func TestDefineValidation(t *testing.T) {
	h := newTestHarness(t, Options{})
	if err := h.Define(Spec{Path: "/bin/true"}); err == nil {
		t.Fatal("nameless spec accepted")
	}
	if err := h.Define(Spec{Name: "x"}); err == nil {
		t.Fatal("pathless spec accepted")
	}
	bad := sh("re", "true")
	bad.ReadyLog = "("
	if err := h.Define(bad); err == nil {
		t.Fatal("invalid ReadyLog regexp accepted")
	}
	if err := h.Define(sh("dup", "true")); err != nil {
		t.Fatal(err)
	}
	if err := h.Define(sh("dup", "true")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := h.Start("ghost"); err == nil {
		t.Fatal("start of undefined process succeeded")
	}
	if err := h.Kill("ghost"); err == nil {
		t.Fatal("kill of undefined process succeeded")
	}
}

func TestEvalProcFaultsKillOnce(t *testing.T) {
	fi, err := faultinject.Parse("proc.victim:times=1,action=kill", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHarness(t, Options{FI: fi})
	if err := h.Define(sh("victim", "sleep 60")); err != nil {
		t.Fatal(err)
	}
	if err := h.Define(sh("bystander", "sleep 60")); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start("bystander"); err != nil {
		t.Fatal(err)
	}
	fired := h.EvalProcFaults()
	if len(fired) != 1 || fired[0].Proc != "victim" || fired[0].Action != faultinject.ActKill {
		t.Fatalf("fired = %+v", fired)
	}
	if done, _ := h.Proc("victim").Exited(); !done {
		t.Fatal("victim still running after kill decision")
	}
	if done, _ := h.Proc("bystander").Exited(); done {
		t.Fatal("bystander was killed")
	}
	// times=1 exhausted: a second pass is a no-op (victim is dead anyway,
	// but the bystander must also stay untouched).
	if fired := h.EvalProcFaults(); len(fired) != 0 {
		t.Fatalf("second pass fired %+v", fired)
	}
}

func TestEvalProcFaultsRestart(t *testing.T) {
	fi, err := faultinject.Parse("proc.w:times=1,action=restart,delay=50ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHarness(t, Options{FI: fi})
	spec := sh("w", "echo up; sleep 60")
	spec.ReadyLog = "up"
	if err := h.Define(spec); err != nil {
		t.Fatal(err)
	}
	p0, err := h.Start("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitReady("w"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fired := h.EvalProcFaults()
	if len(fired) != 1 || fired[0].Action != faultinject.ActRestart {
		t.Fatalf("fired = %+v", fired)
	}
	if el := time.Since(start); el < 50*time.Millisecond {
		t.Fatalf("restart honored no relaunch delay (%v)", el)
	}
	p1 := h.Proc("w")
	if p1 == nil || p1.PID() == p0.PID() || p1.Incarnation != 1 {
		t.Fatalf("no fresh incarnation after restart decision: %+v", p1)
	}
	if _, err := h.WaitReady("w"); err != nil {
		t.Fatal(err)
	}
}

func TestStartChaosTicks(t *testing.T) {
	fi, err := faultinject.Parse("proc.w:after=2,times=1,action=kill", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := newTestHarness(t, Options{FI: fi})
	if err := h.Define(sh("w", "sleep 60")); err != nil {
		t.Fatal(err)
	}
	p, err := h.Start("w")
	if err != nil {
		t.Fatal(err)
	}
	stop := h.StartChaos(20 * time.Millisecond)
	defer stop()
	// after=2 arms the kill on the third tick; well under the deadline.
	if _, err := p.WaitExit(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
}
