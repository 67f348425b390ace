// Package procharness is a compose-style multi-process deployment
// harness: it launches a set of named OS processes (the mvcom
// coordinator, N workers, a traffic generator — or anything else) with
// per-process stdout/stderr capture, supervises them with readiness
// probes, and drives process-level chaos — SIGKILL and restart — from
// the same seeded fault-injection grammar the transport layer uses
// (internal/faultinject, actions "kill" and "restart" on points named
// "proc.<name>").
//
// The harness guarantees orphan-free teardown: every child is started
// in its own process group, Close SIGKILLs every group still alive and
// waits for the reap, and on Linux each child additionally carries
// PDEATHSIG so that even a harness that dies without Close takes its
// children with it. Tests that fail mid-scenario therefore never leak
// processes.
//
// Scenarios are Go calls (Start, WaitReady, Kill, Restart, WaitExit)
// plus EvalProcFaults or StartChaos for injector-driven chaos;
// cmd/mvcom-cluster builds the full coordinator+workers+txgen
// deployment on top of this package.
package procharness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"mvcom/internal/faultinject"
)

// Spec describes one supervised process.
type Spec struct {
	// Name identifies the process to every harness call and names its
	// fault point ("proc.<Name>") and log files. Required, unique.
	Name string
	// Path is the binary to execute. Required.
	Path string
	// Args are the command-line arguments (argv[1:]).
	Args []string
	// Env entries are appended to the parent environment.
	Env []string
	// Dir is the working directory; empty inherits the harness's.
	Dir string
	// ReadyLog, when non-empty, is a regexp the process's combined
	// stdout+stderr must match before WaitReady returns; its capture
	// groups are returned, so a probe like `listening on ([0-9.:]+)`
	// doubles as address discovery.
	ReadyLog string
	// ReadyURL, when non-empty, is polled until it answers 200 before
	// WaitReady returns (after ReadyLog, when both are set).
	ReadyURL string
	// ReadyTimeout bounds WaitReady. Default 10 s.
	ReadyTimeout time.Duration
}

// Options tunes a Harness.
type Options struct {
	// LogDir, when non-empty, receives per-process capture files named
	// <name>.<incarnation>.stdout.log / .stderr.log.
	LogDir string
	// FI drives process-level chaos: every EvalProcFaults pass evaluates
	// the point "proc.<name>" for each live process and applies kill /
	// restart decisions. Nil is off, as everywhere in faultinject.
	FI *faultinject.Injector
}

// Harness supervises a set of processes. Safe for concurrent use.
type Harness struct {
	opts Options

	mu     sync.Mutex
	specs  map[string]Spec
	order  []string
	procs  map[string]*Proc // current incarnation per name
	past   []*Proc          // every incarnation ever started, in order
	closed bool
}

// New returns an empty harness. Callers must Close it (typically via
// defer or t.Cleanup) to uphold the no-leaked-children guarantee.
func New(opts Options) *Harness {
	return &Harness{
		opts:  opts,
		specs: make(map[string]Spec),
		procs: make(map[string]*Proc),
	}
}

// Define registers a process spec without starting it.
func (h *Harness) Define(spec Spec) error {
	if spec.Name == "" {
		return errors.New("procharness: spec needs a name")
	}
	if spec.Path == "" {
		return fmt.Errorf("procharness: spec %s needs a path", spec.Name)
	}
	if spec.ReadyLog != "" {
		if _, err := regexp.Compile(spec.ReadyLog); err != nil {
			return fmt.Errorf("procharness: spec %s: bad ReadyLog: %w", spec.Name, err)
		}
	}
	if spec.ReadyTimeout <= 0 {
		spec.ReadyTimeout = 10 * time.Second
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errors.New("procharness: harness closed")
	}
	if _, dup := h.specs[spec.Name]; dup {
		return fmt.Errorf("procharness: duplicate spec %s", spec.Name)
	}
	h.specs[spec.Name] = spec
	h.order = append(h.order, spec.Name)
	return nil
}

// Start launches a defined process. The previous incarnation, if any,
// must have exited (Kill or Restart it instead).
func (h *Harness) Start(name string) (*Proc, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, errors.New("procharness: harness closed")
	}
	spec, ok := h.specs[name]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("procharness: unknown process %s", name)
	}
	if cur := h.procs[name]; cur != nil {
		if done, _ := cur.Exited(); !done {
			h.mu.Unlock()
			return nil, fmt.Errorf("procharness: %s already running (pid %d)", name, cur.PID())
		}
	}
	inc := 0
	for _, p := range h.past {
		if p.Name == name {
			inc++
		}
	}
	h.mu.Unlock()

	p, err := launch(spec, inc, h.opts.LogDir)
	if err != nil {
		return nil, err
	}

	h.mu.Lock()
	if h.closed {
		// Lost the race with Close: do not leak the fresh child.
		h.mu.Unlock()
		_ = p.kill()
		return nil, errors.New("procharness: harness closed")
	}
	h.procs[name] = p
	h.past = append(h.past, p)
	h.mu.Unlock()
	return p, nil
}

// launch builds and starts the incarnation's exec.Cmd with tee'd output.
func launch(spec Spec, incarnation int, logDir string) (*Proc, error) {
	out := newLogBuf()
	p := &Proc{
		Name:        spec.Name,
		Incarnation: incarnation,
		spec:        spec,
		out:         out,
		done:        make(chan struct{}),
	}
	var stdoutW, stderrW io.Writer = out, out
	if logDir != "" {
		for _, stream := range []struct {
			suffix string
			sink   *io.Writer
		}{{"stdout", &stdoutW}, {"stderr", &stderrW}} {
			path := filepath.Join(logDir, fmt.Sprintf("%s.%d.%s.log", spec.Name, incarnation, stream.suffix))
			f, err := os.Create(path)
			if err != nil {
				p.closeFiles()
				return nil, fmt.Errorf("procharness: %s: %w", spec.Name, err)
			}
			p.files = append(p.files, f)
			*stream.sink = io.MultiWriter(f, out)
		}
	}

	cmd := exec.Command(spec.Path, spec.Args...)
	cmd.Dir = spec.Dir
	cmd.Env = append(os.Environ(), spec.Env...)
	cmd.Stdout = stdoutW
	cmd.Stderr = stderrW
	// Bound the post-exit wait for pipe drains so a grandchild that
	// inherited the pipes cannot wedge the reaper.
	cmd.WaitDelay = 5 * time.Second
	setSysProcAttr(cmd)
	if err := cmd.Start(); err != nil {
		p.closeFiles()
		return nil, fmt.Errorf("procharness: start %s: %w", spec.Name, err)
	}
	p.cmd = cmd
	p.startedAt = time.Now()

	go func() {
		err := cmd.Wait()
		p.mu.Lock()
		p.exited = true
		p.exitCode = cmd.ProcessState.ExitCode()
		p.waitErr = err
		p.mu.Unlock()
		p.closeFiles()
		out.markClosed()
		close(p.done)
	}()
	return p, nil
}

// Proc lookups and lifecycle -------------------------------------------------

// Proc returns the current incarnation of a named process (nil if never
// started).
func (h *Harness) Proc(name string) *Proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.procs[name]
}

// Procs returns every incarnation ever started, in start order.
func (h *Harness) Procs() []*Proc {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Proc(nil), h.past...)
}

// Live lists the names of processes currently running.
func (h *Harness) Live() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, name := range h.order {
		if p := h.procs[name]; p != nil {
			if done, _ := p.Exited(); !done {
				out = append(out, name)
			}
		}
	}
	return out
}

// Kill SIGKILLs the named process's whole process group and waits for
// the reap. Killing an already-exited process is a no-op.
func (h *Harness) Kill(name string) error {
	p := h.Proc(name)
	if p == nil {
		return fmt.Errorf("procharness: unknown or never-started process %s", name)
	}
	return p.kill()
}

// Restart kills the named process (if alive) and launches a fresh
// incarnation with the same spec.
func (h *Harness) Restart(name string) (*Proc, error) {
	if p := h.Proc(name); p != nil {
		if err := p.kill(); err != nil {
			return nil, err
		}
	}
	return h.Start(name)
}

// WaitReady blocks until the named process passes its readiness probes
// (ReadyLog regexp match, then ReadyURL answering 200) and returns the
// ReadyLog capture groups. A process with no probes is ready once
// started.
func (h *Harness) WaitReady(name string) ([]string, error) {
	h.mu.Lock()
	spec, ok := h.specs[name]
	p := h.procs[name]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("procharness: unknown process %s", name)
	}
	if p == nil {
		return nil, fmt.Errorf("procharness: %s not started", name)
	}
	deadline := time.Now().Add(spec.ReadyTimeout)
	var groups []string
	if spec.ReadyLog != "" {
		m, err := p.WaitLog(spec.ReadyLog, time.Until(deadline))
		if err != nil {
			return nil, fmt.Errorf("procharness: %s not ready: %w", name, err)
		}
		groups = m
	}
	if spec.ReadyURL != "" {
		if err := PollHTTP(spec.ReadyURL, time.Until(deadline), nil); err != nil {
			return nil, fmt.Errorf("procharness: %s not ready: %w", name, err)
		}
	}
	return groups, nil
}

// WaitExit blocks until the named process exits and returns its exit
// code (-1 when killed by a signal).
func (h *Harness) WaitExit(name string, timeout time.Duration) (int, error) {
	p := h.Proc(name)
	if p == nil {
		return 0, fmt.Errorf("procharness: unknown or never-started process %s", name)
	}
	return p.WaitExit(timeout)
}

// FiredFault records one process-level chaos decision that fired.
type FiredFault struct {
	Proc   string
	Action faultinject.Action
}

// EvalProcFaults runs one chaos pass: for every live process it
// evaluates the fault point "proc.<name>" against the harness injector
// and applies process-level decisions — ActKill SIGKILLs the process,
// ActRestart SIGKILLs it, sleeps the rule's optional delay, and starts
// a fresh incarnation. Transport-level actions (error/delay/drop) at a
// process point are ignored. Returns the decisions that fired.
func (h *Harness) EvalProcFaults() []FiredFault {
	h.mu.Lock()
	fi := h.opts.FI
	h.mu.Unlock()
	if fi == nil {
		return nil
	}
	var fired []FiredFault
	for _, name := range h.Live() {
		d := fi.Eval("proc." + name)
		switch d.Action {
		case faultinject.ActKill:
			_ = h.Kill(name)
			fired = append(fired, FiredFault{Proc: name, Action: d.Action})
		case faultinject.ActRestart:
			_ = h.Kill(name)
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			if _, err := h.Restart(name); err == nil {
				fired = append(fired, FiredFault{Proc: name, Action: d.Action})
			}
		}
	}
	return fired
}

// StartChaos evaluates the process fault points every tick until the
// returned stop function is called (idempotent). The total kill/restart
// schedule stays deterministic for a given injector seed and tick
// count.
func (h *Harness) StartChaos(tick time.Duration) (stop func()) {
	if tick <= 0 {
		tick = 100 * time.Millisecond
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-t.C:
				h.EvalProcFaults()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopCh) })
		<-done
	}
}

// Close SIGKILLs every live process group and waits for every reap. It
// is the harness's orphan-free guarantee and is safe to call more than
// once.
func (h *Harness) Close() error {
	h.mu.Lock()
	h.closed = true
	procs := append([]*Proc(nil), h.past...)
	h.mu.Unlock()

	var errs []error
	for _, p := range procs {
		if err := p.kill(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Proc is one incarnation of a supervised process.
type Proc struct {
	// Name is the spec name; Incarnation counts restarts (0 = first).
	Name        string
	Incarnation int

	spec      Spec
	cmd       *exec.Cmd
	out       *logBuf
	done      chan struct{}
	startedAt time.Time

	mu       sync.Mutex
	files    []*os.File
	exited   bool
	exitCode int
	waitErr  error
	killed   bool
}

// PID returns the OS process id (0 before start).
func (p *Proc) PID() int {
	if p.cmd == nil || p.cmd.Process == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// Exited reports whether the process has been reaped, and its exit code
// (-1 when killed by a signal; meaningless while still running).
func (p *Proc) Exited() (bool, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited, p.exitCode
}

// KilledByHarness reports whether the harness itself SIGKILLed this
// incarnation (chaos action, Restart, or Close) — a supervisor checking
// exit codes can then tell an injected kill from a real crash.
func (p *Proc) KilledByHarness() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// WaitLog blocks until the combined output matches the regexp (full
// match plus capture groups returned) or the timeout expires. A process
// that exits without ever matching fails immediately.
func (p *Proc) WaitLog(pattern string, timeout time.Duration) ([]string, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	return p.out.waitMatch(re, timeout)
}

// WaitExit blocks until the process is reaped and returns its exit code.
func (p *Proc) WaitExit(timeout time.Duration) (int, error) {
	select {
	case <-p.done:
		_, code := p.Exited()
		return code, nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("procharness: %s (pid %d) still running after %v", p.Name, p.PID(), timeout)
	}
}

// killGrace bounds the wait for a SIGKILLed child to be reaped.
const killGrace = 5 * time.Second

// kill SIGKILLs the process group and waits for the reap.
func (p *Proc) kill() error {
	p.mu.Lock()
	if p.exited || p.cmd == nil || p.cmd.Process == nil {
		p.mu.Unlock()
		return nil
	}
	p.killed = true
	pid := p.cmd.Process.Pid
	p.mu.Unlock()
	killGroup(pid)
	_ = p.cmd.Process.Kill()
	select {
	case <-p.done:
		return nil
	case <-time.After(killGrace):
		return fmt.Errorf("procharness: %s (pid %d) not reaped %v after SIGKILL", p.Name, pid, killGrace)
	}
}

// closeFiles closes the capture files exactly once.
func (p *Proc) closeFiles() {
	p.mu.Lock()
	files := p.files
	p.files = nil
	p.mu.Unlock()
	for _, f := range files {
		_ = f.Close()
	}
}

// Alive reports whether the pid still exists from the kernel's point of
// view — the belt-and-braces leak check tests use after Close.
func (p *Proc) Alive() bool {
	pid := p.PID()
	if pid == 0 {
		return false
	}
	if done, _ := p.Exited(); done {
		return false
	}
	return pidAlive(pid)
}

// PollHTTP polls a URL until pred accepts the response (nil pred
// accepts any 200) or the timeout expires.
func PollHTTP(url string, timeout time.Duration, pred func(status int, body []byte) bool) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if rerr == nil {
				if pred == nil {
					if resp.StatusCode == http.StatusOK {
						return nil
					}
					lastErr = fmt.Errorf("status %s", resp.Status)
				} else if pred(resp.StatusCode, body) {
					return nil
				} else {
					lastErr = errors.New("predicate not satisfied")
				}
			} else {
				lastErr = rerr
			}
		} else {
			lastErr = err
		}
		time.Sleep(25 * time.Millisecond)
	}
	if lastErr == nil {
		lastErr = errors.New("never polled")
	}
	return fmt.Errorf("procharness: poll %s: timeout after %v: %w", url, timeout, lastErr)
}

// logBuf is a concurrency-safe capture buffer whose readers can block
// until a pattern appears.
type logBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    bytes.Buffer
	closed bool
}

func newLogBuf() *logBuf {
	b := &logBuf{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *logBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	n, err := b.buf.Write(p)
	b.cond.Broadcast()
	b.mu.Unlock()
	return n, err
}

func (b *logBuf) markClosed() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// waitMatch blocks until the buffer matches re, the stream closes (the
// process exited), or the timeout expires. Returns the match with its
// capture groups.
func (b *logBuf) waitMatch(re *regexp.Regexp, timeout time.Duration) ([]string, error) {
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer wake.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if m := re.FindStringSubmatch(b.buf.String()); m != nil {
			return m, nil
		}
		if b.closed {
			return nil, fmt.Errorf("process exited before output matched %q; tail: %q", re, tail(b.buf.String(), 300))
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("timeout after %v waiting for output to match %q; tail: %q", timeout, re, tail(b.buf.String(), 300))
		}
		b.cond.Wait()
	}
}

// tail returns the last n bytes of s for error messages.
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n:]
}
