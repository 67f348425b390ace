//go:build race

package main

// raceEnabled is set when the tests run under the race detector, which
// slows the plane below the workloads' offered rates.
const raceEnabled = true
