package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
	"mvcom/internal/epoch"
	"mvcom/internal/txgen"
)

// writeJournal serves a short pipeline into a fresh journal directory so
// every subcommand runs against real provenance data.
func writeJournal(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	j, err := decisionlog.Open(decisionlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    6,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: 40, MeanTxs: 50},
		Seed:          1,
		DecisionLog:   j,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 7, MaxIters: 1500})}
	if _, err := p.RunEpochs(4, sched, 1.0, 4000, 2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func explain(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run %v: %v\noutput:\n%s", args, err, buf.String())
	}
	return buf.String()
}

func TestExplainSubcommands(t *testing.T) {
	dir := writeJournal(t)

	out := explain(t, "-dir", dir, "list")
	if n := strings.Count(out, "\n"); n != 5 { // header + 4 epochs
		t.Fatalf("list printed %d lines:\n%s", n, out)
	}
	if !strings.Contains(out, "se") {
		t.Fatalf("list missing solver kind:\n%s", out)
	}

	out = explain(t, "-dir", dir, "show", "2")
	for _, want := range []string{"epoch 2", "solver=se", "PERMITTED", "total:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("show missing %q:\n%s", want, out)
		}
	}

	out = explain(t, "-dir", dir, "verify")
	if !strings.Contains(out, "4 entries: 4 replayed bit-identically, 0 skipped") {
		t.Fatalf("verify output:\n%s", out)
	}

	out = explain(t, "-dir", dir, "diff", "1", "2")
	if !strings.Contains(out, "epoch 1 -> 2") {
		t.Fatalf("diff output:\n%s", out)
	}
}

// TestExplainWhyCoversEveryCommittee asserts the why classifier reaches a
// definite outcome for each committee in each journaled epoch, and that
// the JSON rendering round-trips.
func TestExplainWhyCoversEveryCommittee(t *testing.T) {
	dir := writeJournal(t)
	entries, _, err := decisionlog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := map[string]bool{"permitted": true, "refused": true, "straggler": true, "expired": true, "absent": true}
	for i := range entries {
		e := &entries[i]
		for c := 0; c < 6; c++ {
			rep := explainWhy(e, c)
			if !outcomes[rep.Outcome] {
				t.Fatalf("epoch %d committee %d: outcome %q", e.Epoch, c, rep.Outcome)
			}
			if rep.Reason == "" {
				t.Fatalf("epoch %d committee %d: empty reason", e.Epoch, c)
			}
			for _, v := range rep.Shards {
				if e.Shards[v.Index].Committee != c {
					t.Fatalf("epoch %d committee %d: verdict for foreign shard %d", e.Epoch, c, v.Index)
				}
			}
		}
	}

	var rep whyReport
	out := explain(t, "-dir", dir, "-json", "why", "2", "0")
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("why -json: %v\n%s", err, out)
	}
	if rep.Epoch != 2 || rep.Committee != 0 || rep.Outcome == "" {
		t.Fatalf("why -json decoded %+v", rep)
	}
}

// TestExplainSelectedShardsArePermitted cross-checks the classifier
// against the journal's own selection: every selected index must come
// back "permitted" for its committee, and a permitted committee's
// verdicts must carry the marginal utility the solver recorded.
func TestExplainSelectedShardsArePermitted(t *testing.T) {
	dir := writeJournal(t)
	entries, _, err := decisionlog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i := range entries {
		e := &entries[i]
		for _, li := range e.Selected {
			rep := explainWhy(e, e.Shards[li].Committee)
			if rep.Outcome != "permitted" {
				t.Fatalf("epoch %d: selected shard %d's committee %d explained as %q",
					e.Epoch, li, e.Shards[li].Committee, rep.Outcome)
			}
			for _, v := range rep.Shards {
				if v.Index == li {
					if v.Outcome != "permitted" || v.Marginal == nil {
						t.Fatalf("epoch %d shard %d: verdict %+v", e.Epoch, li, v)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no selected shards checked")
	}
}

func TestExplainTrajectoryJSON(t *testing.T) {
	dir := writeJournal(t)
	out := explain(t, "-dir", dir, "-json", "trajectory", "0")
	var points []trajPoint
	if err := json.Unmarshal([]byte(out), &points); err != nil {
		t.Fatalf("trajectory -json: %v\n%s", err, out)
	}
	if len(points) != 4 {
		t.Fatalf("trajectory has %d points, want 4", len(points))
	}
	live := 0
	for _, p := range points {
		live += p.Live
		if p.Utility <= 0 {
			t.Fatalf("point %+v has no epoch utility", p)
		}
	}
	if live == 0 {
		t.Fatal("committee 0 never live across the journal")
	}
}

func TestExplainErrors(t *testing.T) {
	dir := writeJournal(t)
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-dir", dir, "show", "99"},        // unknown epoch
		{"-dir", dir, "why", "2"},          // missing committee
		{"-dir", dir, "trajectory", "999"}, // never-live committee
		{"-dir", dir, "bogus"},             // unknown command
		{"-dir", t.TempDir(), "list"},      // empty journal
	} {
		if err := run(args, &buf); err == nil {
			t.Fatalf("run %v succeeded, want error", args)
		}
	}
}

// TestExplainWhyPresolved: at a small α the arrived volume overflows the
// block and most shards are worth less than their age, so presolve takes
// them out. A committee whose every live shard was presolved reads
// "presolved" with its value, counts as live in trajectory and diff, and
// the journal still replays.
func TestExplainWhyPresolved(t *testing.T) {
	dir := t.TempDir()
	j, err := decisionlog.Open(decisionlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	p, err := epoch.NewPipeline(epoch.Config{
		Committees:    6,
		CommitteeSize: 4,
		Trace:         txgen.Config{Blocks: 40, MeanTxs: 50},
		Seed:          1,
		DecisionLog:   j,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched := epoch.SolverScheduler{Solver: core.NewSE(core.SEConfig{Seed: 7, MaxIters: 1500})}
	if _, err := p.RunEpochs(4, sched, 0.05, 3000, 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := decisionlog.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var e *decisionlog.Entry
	committee := -1
	for i := range entries {
		live := liveCommittees(&entries[i])
		for _, s := range entries[i].Shards {
			delete(live, s.Committee)
		}
		for c := range live { // committees whose only rows are presolved
			if committee < 0 || c < committee {
				e, committee = &entries[i], c
			}
		}
		if e != nil {
			break
		}
	}
	if e == nil {
		t.Fatal("no committee was wholly presolved: the fixture does not exercise presolve")
	}

	rep := explainWhy(e, committee)
	if rep.Outcome != "presolved" || len(rep.Shards) == 0 {
		t.Fatalf("epoch %d committee %d: %+v", e.Epoch, committee, rep)
	}
	full := e.FullInstance()
	for _, v := range rep.Shards {
		if v.Outcome != "presolved" || e.Presolved[v.Index].Committee != committee {
			t.Fatalf("verdict %+v", v)
		}
		if want := full.Value(len(e.Shards) + v.Index); v.Value != want || v.Value >= 0 {
			t.Fatalf("verdict value %v, want %v (negative)", v.Value, want)
		}
		if !strings.Contains(v.Reason, fmt.Sprintf("%.1f", v.Value)) {
			t.Fatalf("reason %q does not print the value %.1f", v.Reason, v.Value)
		}
	}
	ep, c := strconv.Itoa(e.Epoch), strconv.Itoa(committee)
	out := explain(t, "-dir", dir, "why", ep, c)
	if !strings.Contains(out, ": presolved —") || !strings.Contains(out, fmt.Sprintf("value %.1f", rep.Shards[0].Value)) {
		t.Fatalf("why output:\n%s", out)
	}

	var points []trajPoint
	if err := json.Unmarshal([]byte(explain(t, "-dir", dir, "-json", "trajectory", c)), &points); err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Epoch == e.Epoch && (pt.Live != len(rep.Shards) || pt.Outcome != "presolved") {
			t.Fatalf("trajectory point %+v, want %d live presolved", pt, len(rep.Shards))
		}
	}
	if !liveCommittees(e)[committee] {
		t.Fatalf("diff's live set misses presolved committee %d", committee)
	}
	n := len(entries)
	if out := explain(t, "-dir", dir, "verify"); !strings.Contains(out, fmt.Sprintf("%d entries: %d replayed bit-identically", n, n)) {
		t.Fatalf("verify output:\n%s", out)
	}
}
