package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Parse builds an injector from a compact spec string, the form the CLIs
// accept via -fault-spec. The grammar is
//
//	spec  := entry { ";" entry }
//	entry := point [ ":" opt { "," opt } ]
//	opt   := "prob=" float | "after=" int | "times=" int |
//	         "action=" ( "error" | "delay" | "drop" | "kill" | "restart" ) |
//	         "delay=" duration
//
// A bare point defaults to action=error firing on every hit. An empty
// spec returns a nil injector (chaos off), preserving nil-is-off end to
// end. Example:
//
//	worker.send:after=2,times=1,action=drop;worker.dial:prob=0.5
func Parse(spec string, seed int64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var rules []Rule
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, opts, _ := strings.Cut(entry, ":")
		point = strings.TrimSpace(point)
		r := Rule{Point: point}
		if strings.TrimSpace(opts) != "" {
			for _, opt := range strings.Split(opts, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: point %s: option %q is not key=value", point, opt)
				}
				key, val = strings.TrimSpace(key), strings.TrimSpace(val)
				var err error
				switch key {
				case "prob":
					r.Prob, err = strconv.ParseFloat(val, 64)
				case "after":
					r.After, err = strconv.Atoi(val)
				case "times":
					r.Times, err = strconv.Atoi(val)
				case "delay":
					r.Delay, err = time.ParseDuration(val)
					if err == nil && r.Delay <= 0 {
						err = fmt.Errorf("delay %s is not positive", val)
					}
				case "action":
					switch val {
					case "error":
						r.Action = ActError
					case "delay":
						r.Action = ActDelay
					case "drop":
						r.Action = ActDrop
					case "kill":
						r.Action = ActKill
					case "restart":
						r.Action = ActRestart
					default:
						err = fmt.Errorf("unknown action %q", val)
					}
				default:
					err = fmt.Errorf("unknown option %q", key)
				}
				if err != nil {
					return nil, fmt.Errorf("faultinject: point %s: %v", point, err)
				}
			}
		}
		if r.Action == ActDelay && r.Delay == 0 {
			// A delay action without an explicit duration gets a small
			// default so "action=delay" alone is usable from the CLI.
			r.Delay = 100 * time.Millisecond
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	return New(seed, rules...)
}
