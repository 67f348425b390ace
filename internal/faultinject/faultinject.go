// Package faultinject provides deterministic fault injection for the
// distributed SE runtime and the epoch pipeline. Production code declares
// *named fault points* (plain strings such as "worker.send" or
// "epoch.committee") and asks an Injector for a decision every time
// execution passes the point; the injector answers from per-point rules —
// fire with a probability, fire only after the first N passes, fire at
// most M times — driven by an explicitly seeded RNG so every chaos run is
// reproducible bit-for-bit.
//
// The package follows the repo-wide "nil is off" convention of
// internal/obs: a nil *Injector evaluates every point to no-op, so call
// sites never branch on whether chaos is enabled. The package is stdlib
// only and deliberately knows nothing about sockets or engines — actions
// are symbolic (error / delay / conn-drop) and each injection site
// interprets them (e.g. the dist codec closes its connection on ActDrop).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error so tests
// and recovery paths can recognise synthetic faults with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Action is what an injection site should do when a point fires.
type Action uint8

// The fault actions.
const (
	// ActNone means the point did not fire; proceed normally.
	ActNone Action = iota
	// ActError makes the site fail with Decision.Err.
	ActError
	// ActDelay makes the site sleep Decision.Delay, then proceed.
	ActDelay
	// ActDrop makes the site tear down its transport (close the
	// connection) and fail with Decision.Err. Sites without a transport
	// treat it like ActError.
	ActDrop
	// ActKill is a process-level action: the supervising harness
	// (internal/procharness) SIGKILLs the target process. Transport-level
	// sites that cannot kill a process ignore it.
	ActKill
	// ActRestart is a process-level action: SIGKILL the target process,
	// wait Decision.Delay (optional), and launch a fresh incarnation.
	// Transport-level sites ignore it.
	ActRestart
)

// String names the action for specs, logs, and metric labels.
func (a Action) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActError:
		return "error"
	case ActDelay:
		return "delay"
	case ActDrop:
		return "drop"
	case ActKill:
		return "kill"
	case ActRestart:
		return "restart"
	default:
		return "unknown"
	}
}

// Rule arms one fault point. The zero value of every optional field means
// "no constraint": Prob 0 is treated as 1 (always), After 0 fires from the
// first hit, Times 0 never exhausts.
type Rule struct {
	// Point names the fault point the rule arms.
	Point string
	// Prob is the per-hit firing probability in (0, 1]; 0 means 1.
	Prob float64
	// After lets the first After hits pass before the rule may fire.
	After int
	// Times caps how many times the rule fires; 0 is unlimited.
	Times int
	// Action is what the site should do; ActNone defaults to ActError.
	Action Action
	// Delay is the sleep for ActDelay, or the optional pause between the
	// kill and the relaunch for ActRestart.
	Delay time.Duration
}

// Decision is the verdict for one pass through a fault point.
type Decision struct {
	// Action is ActNone when the point did not fire.
	Action Action
	// Delay is the sleep duration for ActDelay.
	Delay time.Duration
	// Err wraps ErrInjected with the point name for ActError/ActDrop.
	Err error
}

// ruleState is a rule plus its hit accounting.
type ruleState struct {
	rule  Rule
	hits  int // passes through the point, fired or not
	fires int // times the rule fired
}

// Injector evaluates fault points against armed rules. Safe for
// concurrent use; a nil *Injector is fully inert.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]*ruleState
}

// New returns an injector with the given rules, drawing per-hit
// probability coins from a generator seeded with seed. Rules for invalid
// points (empty name), a Prob outside [0, 1] (NaN included) or
// non-positive delays on ActDelay are rejected.
func New(seed int64, rules ...Rule) (*Injector, error) {
	in := &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]*ruleState, len(rules)),
	}
	for _, r := range rules {
		if r.Point == "" {
			return nil, errors.New("faultinject: rule with empty point")
		}
		if !(r.Prob >= 0 && r.Prob <= 1) {
			return nil, fmt.Errorf("faultinject: point %s: prob %v out of [0, 1]", r.Point, r.Prob)
		}
		if r.After < 0 || r.Times < 0 {
			return nil, fmt.Errorf("faultinject: point %s: negative trigger bound", r.Point)
		}
		if r.Action == ActDelay && r.Delay <= 0 {
			return nil, fmt.Errorf("faultinject: point %s: delay action needs a positive delay", r.Point)
		}
		if _, dup := in.rules[r.Point]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for point %s", r.Point)
		}
		if r.Action == ActNone {
			r.Action = ActError
		}
		in.rules[r.Point] = &ruleState{rule: r}
	}
	return in, nil
}

// Eval records one pass through the named point and returns the decision.
// A nil injector, an unknown point, an exhausted rule, a pass inside the
// After window, or a lost probability coin all return ActNone.
func (in *Injector) Eval(point string) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.rules[point]
	if !ok {
		return Decision{}
	}
	st.hits++
	if st.hits <= st.rule.After {
		return Decision{}
	}
	if st.rule.Times > 0 && st.fires >= st.rule.Times {
		return Decision{}
	}
	if p := st.rule.Prob; p > 0 && p < 1 && in.rng.Float64() >= p {
		return Decision{}
	}
	st.fires++
	d := Decision{Action: st.rule.Action, Delay: st.rule.Delay}
	if d.Action != ActDelay {
		d.Err = fmt.Errorf("%w at %s", ErrInjected, point)
	}
	return d
}
