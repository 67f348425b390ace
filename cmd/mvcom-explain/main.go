// Command mvcom-explain answers provenance questions against a decision
// journal (internal/decisionlog): why a committee was or was not
// permitted in an epoch, how a committee's scheduling inputs and fate
// evolved across epochs, what changed between two epochs' decisions, and
// whether the journal still replays bit-identically. Every subcommand
// has a text rendering for operators and a -json rendering for tooling.
//
// Usage:
//
//	mvcom-explain -dir results/soak_decisions list
//	mvcom-explain -dir results/soak_decisions show 12
//	mvcom-explain -dir results/soak_decisions why 12 7      # epoch 12, committee 7
//	mvcom-explain -dir results/soak_decisions trajectory 7
//	mvcom-explain -dir results/soak_decisions diff 11 12
//	mvcom-explain -dir results/soak_decisions -json verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"mvcom/internal/core"
	"mvcom/internal/decisionlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mvcom-explain:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("mvcom-explain", flag.ContinueOnError)
	var (
		dir    = fs.String("dir", "", "decision-journal directory (required)")
		asJSON = fs.Bool("json", false, "machine-readable output")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mvcom-explain -dir JOURNAL [-json] <command> [args]\n\ncommands:\n"+
			"  list                     one line per journaled epoch\n"+
			"  show <epoch>             the epoch's full decision record\n"+
			"  why <epoch> <committee>  why the committee was (not) permitted\n"+
			"  trajectory <committee>   the committee's history across epochs\n"+
			"  diff <epoch1> <epoch2>   what changed between two decisions\n"+
			"  verify [epoch]           replay-verify the journal (or one epoch)\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-dir is required")
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	entries, torn, err := decisionlog.ReadDir(*dir)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("journal %s holds no entries", *dir)
	}

	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "list":
		return cmdList(w, entries, *asJSON)
	case "show":
		e, err := oneEpoch(entries, rest, "show")
		if err != nil {
			return err
		}
		return cmdShow(w, e, *asJSON)
	case "why":
		if len(rest) != 2 {
			return fmt.Errorf("why needs <epoch> <committee>")
		}
		e, err := oneEpoch(entries, rest[:1], "why")
		if err != nil {
			return err
		}
		committee, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad committee %q", rest[1])
		}
		return cmdWhy(w, e, committee, *asJSON)
	case "trajectory":
		if len(rest) != 1 {
			return fmt.Errorf("trajectory needs <committee>")
		}
		committee, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("bad committee %q", rest[0])
		}
		return cmdTrajectory(w, entries, committee, *asJSON)
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("diff needs <epoch1> <epoch2>")
		}
		a, err := oneEpoch(entries, rest[:1], "diff")
		if err != nil {
			return err
		}
		b, err := oneEpoch(entries, rest[1:], "diff")
		if err != nil {
			return err
		}
		return cmdDiff(w, a, b, *asJSON)
	case "verify":
		return cmdVerify(w, entries, torn, rest, *asJSON)
	default:
		fs.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// oneEpoch resolves a single-epoch argument against the journal.
func oneEpoch(entries []decisionlog.Entry, args []string, cmd string) (*decisionlog.Entry, error) {
	if len(args) < 1 {
		return nil, fmt.Errorf("%s needs <epoch>", cmd)
	}
	n, err := strconv.Atoi(args[0])
	if err != nil {
		return nil, fmt.Errorf("bad epoch %q", args[0])
	}
	for i := range entries {
		if entries[i].Epoch == n {
			return &entries[i], nil
		}
	}
	return nil, fmt.Errorf("epoch %d is not in the journal (oldest retained: %d, newest: %d)",
		n, entries[0].Epoch, entries[len(entries)-1].Epoch)
}

// epochLine is list's per-epoch digest.
type epochLine struct {
	Epoch         int     `json:"epoch"`
	Solver        string  `json:"solver"`
	Shards        int     `json:"shards"`
	Selected      int     `json:"selected"`
	Utility       float64 `json:"utility"`
	Load          int     `json:"load"`
	Warm          bool    `json:"warm,omitempty"`
	Deferrals     int     `json:"deferrals,omitempty"`
	Expiries      int     `json:"expiries,omitempty"`
	NonReplayable string  `json:"nonReplayable,omitempty"`
}

func digest(e *decisionlog.Entry) epochLine {
	l := epochLine{
		Epoch: e.Epoch, Solver: e.Solver.Kind, Shards: len(e.Shards),
		Selected: len(e.Selected), Utility: e.Utility, Load: e.Load,
		Warm: e.Warm, NonReplayable: e.NonReplayable,
	}
	for _, d := range e.Deferrals {
		if d.Kind == decisionlog.Expired {
			l.Expiries++
		} else {
			l.Deferrals++
		}
	}
	return l
}

func cmdList(w io.Writer, entries []decisionlog.Entry, asJSON bool) error {
	lines := make([]epochLine, len(entries))
	for i := range entries {
		lines[i] = digest(&entries[i])
	}
	if asJSON {
		return writeJSON(w, lines)
	}
	fmt.Fprintf(w, "%-7s %-11s %-7s %-9s %-12s %-8s %-5s %-10s %s\n",
		"epoch", "solver", "shards", "selected", "utility", "load", "warm", "defer/exp", "notes")
	for _, l := range lines {
		notes := ""
		if l.NonReplayable != "" {
			notes = "non-replayable: " + l.NonReplayable
		}
		fmt.Fprintf(w, "%-7d %-11s %-7d %-9d %-12.1f %-8d %-5v %d/%-8d %s\n",
			l.Epoch, l.Solver, l.Shards, l.Selected, l.Utility, l.Load, l.Warm, l.Deferrals, l.Expiries, notes)
	}
	return nil
}

func cmdShow(w io.Writer, e *decisionlog.Entry, asJSON bool) error {
	if asJSON {
		return writeJSON(w, e)
	}
	fmt.Fprintf(w, "epoch %d  solver=%s seed=%d  ddl=%.1f alpha=%.2f capacity=%d nmin=%d\n",
		e.Epoch, e.Solver.Kind, e.Solver.Seed, e.DDL, e.Alpha, e.Capacity, e.Nmin)
	if e.Warm {
		fmt.Fprintf(w, "warm start from previous selection %v\n", e.WarmPrev)
	}
	if e.NonReplayable != "" {
		fmt.Fprintf(w, "non-replayable: %s\n", e.NonReplayable)
	}
	if e.TraceID != 0 {
		fmt.Fprintf(w, "trace %d\n", e.TraceID)
	}
	in := e.Instance()
	sol := core.Solution{
		Selected: selectedMask(e), Utility: e.Utility, Load: e.Load, Count: e.Count,
	}
	fmt.Fprintf(w, "\nper-shard decisions (instance index = position; committee IDs in brackets):\n")
	if err := core.WriteExplanation(w, &in, sol); err != nil {
		return err
	}
	if len(e.Presolved) > 0 {
		full := e.FullInstance()
		fmt.Fprintf(w, "\npresolved (arrived, negative value, volume over capacity: taken out before the solve):\n")
		for k, sr := range e.Presolved {
			fmt.Fprintf(w, "  committee %d: %d TXs, latency %.1f, age %.1f, value %.1f\n",
				sr.Committee, sr.Size, sr.Latency, sr.Age, full.Value(len(e.Shards)+k))
		}
	}
	if len(e.Rejected) > 0 {
		fmt.Fprintf(w, "\ntop rejected candidates (admission counterfactuals):\n")
		for _, r := range e.Rejected {
			fmt.Fprintf(w, "  shard %d [committee %d]: value %.1f, evict %v (worth %.1f), net %+.1f, feasible=%v\n",
				r.Shard, e.Shards[r.Shard].Committee, r.Value, r.Evicted, r.EvictedValue, r.NetGain, r.Feasible)
		}
	}
	if len(e.Deferrals) > 0 {
		fmt.Fprintf(w, "\ndeferral outcomes:\n")
		for _, d := range e.Deferrals {
			if d.Kind == decisionlog.Expired {
				fmt.Fprintf(w, "  committee %d EXPIRED after %d deferrals (MaxDeferrals=%d)\n",
					d.Committee, d.Deferrals, d.MaxDeferrals)
			} else {
				fmt.Fprintf(w, "  committee %d deferred (carry %d)\n", d.Committee, d.Deferrals)
			}
		}
	}
	if len(e.Tasks) > 0 {
		fmt.Fprintf(w, "\ndistributed tasks:\n")
		for _, t := range e.Tasks {
			if t.Err != "" {
				fmt.Fprintf(w, "  %s seed=%d FAILED: %s\n", t.TaskID, t.Seed, t.Err)
			} else {
				fmt.Fprintf(w, "  %s seed=%d iters=%d utility=%.1f selected=%v\n",
					t.TaskID, t.Seed, t.Iterations, t.Utility, t.Selected)
			}
		}
	}
	return nil
}

// shardVerdict is the fate of ONE of a committee's live shards in an
// epoch. A committee may field several shards at once — deferred blocks
// it is still carrying plus the freshly produced one — so a whyReport
// holds a verdict per live shard.
type shardVerdict struct {
	// Index is the instance index within the epoch; for a presolved
	// shard, its position in the entry's presolved list.
	Index     int             `json:"index"`
	Size      int             `json:"size"`
	Latency   float64         `json:"latency"`
	Age       float64         `json:"age"`
	Value     float64         `json:"value"`
	Carried   int             `json:"carried,omitempty"` // deferrals already absorbed
	Outcome   string          `json:"outcome"`           // permitted | refused | presolved | straggler
	Reason    string          `json:"reason"`
	Marginal  *core.Marginal  `json:"marginal,omitempty"`
	Rejection *core.Rejection `json:"rejection,omitempty"`
}

// whyReport is the machine-readable answer to "why was committee X (not)
// permitted in epoch e".
type whyReport struct {
	Epoch     int    `json:"epoch"`
	Committee int    `json:"committee"`
	Outcome   string `json:"outcome"` // permitted | refused | presolved | straggler | expired | absent
	Reason    string `json:"reason"`

	Shards    []shardVerdict              `json:"shards,omitempty"`
	Deferrals []decisionlog.DeferralEvent `json:"deferrals,omitempty"`
}

func verdictFor(e *decisionlog.Entry, in *core.Instance, li int) shardVerdict {
	sr := &e.Shards[li]
	v := shardVerdict{
		Index: li, Size: sr.Size, Latency: sr.Latency, Age: sr.Age,
		Value: in.Value(li), Carried: sr.Deferrals,
	}
	if in.Latencies[li] > in.DDL {
		v.Outcome = "straggler"
		v.Reason = fmt.Sprintf("missed the deadline: latency %.1f > DDL %.1f — never a candidate", in.Latencies[li], in.DDL)
		return v
	}
	for i := range e.Marginals {
		if e.Marginals[i].Shard == li {
			v.Outcome = "permitted"
			v.Marginal = &e.Marginals[i]
			v.Reason = fmt.Sprintf("selected: contributes %.1f utility", e.Marginals[i].Utility)
			if e.Marginals[i].Binding {
				v.Reason += "; binding for Nmin (removal would make the epoch infeasible)"
			}
			return v
		}
	}
	v.Outcome = "refused"
	for i := range e.Rejected {
		if e.Rejected[i].Shard == li {
			r := &e.Rejected[i]
			v.Rejection = r
			switch {
			case !r.Feasible && len(r.Evicted) == 0:
				v.Reason = fmt.Sprintf("refused: its %d TXs cannot fit capacity %d under any eviction set", sr.Size, e.Capacity)
			case r.NetGain <= 0:
				v.Reason = fmt.Sprintf("refused: admitting it (value %.1f) would evict %v worth %.1f — net %+.1f",
					r.Value, r.Evicted, r.EvictedValue, r.NetGain)
			default:
				v.Reason = fmt.Sprintf("refused: the greedy swap looks worth %+.1f in isolation, but the solver found a better global shape without it", r.NetGain)
			}
			return v
		}
	}
	v.Reason = fmt.Sprintf("refused: value %.1f ranked below the top-%d recorded counterfactuals; capacity %d was better spent",
		v.Value, len(e.Rejected), e.Capacity)
	return v
}

// presolvedVerdict is the fate of the entry's k-th presolved row: refused
// for its value before the solve. full is e.FullInstance().
func presolvedVerdict(e *decisionlog.Entry, full *core.Instance, k int) shardVerdict {
	sr := &e.Presolved[k]
	v := shardVerdict{
		Index: k, Size: sr.Size, Latency: sr.Latency, Age: sr.Age,
		Value: full.Value(len(e.Shards) + k), Carried: sr.Deferrals, Outcome: "presolved",
	}
	v.Reason = fmt.Sprintf("refused for its value: %.1f < 0 with the arrived volume over capacity %d, so no optimal block holds it — taken out before the solve",
		v.Value, e.Capacity)
	return v
}

func explainWhy(e *decisionlog.Entry, committee int) whyReport {
	rep := whyReport{Epoch: e.Epoch, Committee: committee}
	for i := range e.Deferrals {
		if e.Deferrals[i].Committee == committee {
			rep.Deferrals = append(rep.Deferrals, e.Deferrals[i])
		}
	}
	in := e.Instance()
	for li := range e.Shards {
		if e.Shards[li].Committee == committee {
			rep.Shards = append(rep.Shards, verdictFor(e, &in, li))
		}
	}
	if len(e.Presolved) > 0 {
		full := e.FullInstance()
		for k := range e.Presolved {
			if e.Presolved[k].Committee == committee {
				rep.Shards = append(rep.Shards, presolvedVerdict(e, &full, k))
			}
		}
	}
	// Summarize: any permitted shard makes the committee permitted; with
	// none live, an expiry event this epoch explains the absence.
	permitted, refused, presolved, stragglers := 0, 0, 0, 0
	for _, v := range rep.Shards {
		switch v.Outcome {
		case "permitted":
			permitted++
		case "straggler":
			stragglers++
		case "presolved":
			presolved++
		default:
			refused++
		}
	}
	expired := 0
	for _, d := range rep.Deferrals {
		if d.Kind == decisionlog.Expired {
			expired++
		}
	}
	switch {
	case permitted > 0:
		rep.Outcome = "permitted"
		rep.Reason = fmt.Sprintf("%d of %d live shards selected", permitted, len(rep.Shards))
	case len(rep.Shards) == 0 && expired > 0:
		rep.Outcome = "expired"
		d := rep.Deferrals[len(rep.Deferrals)-1]
		rep.Reason = fmt.Sprintf("shard expired: deferred %d times against MaxDeferrals=%d", d.Deferrals, d.MaxDeferrals)
	case len(rep.Shards) == 0:
		rep.Outcome = "absent"
		rep.Reason = "committee reported no shard this epoch (quiet, departed, or expired earlier)"
	case stragglers == len(rep.Shards):
		rep.Outcome = "straggler"
		rep.Reason = fmt.Sprintf("all %d live shards missed the deadline", len(rep.Shards))
	case presolved == len(rep.Shards):
		rep.Outcome = "presolved"
		rep.Reason = fmt.Sprintf("all %d live shards refused for their negative value, taken out before the solve", presolved)
	default:
		rep.Outcome = "refused"
		rep.Reason = fmt.Sprintf("%d live shards, none selected (%d refused, %d presolved, %d stragglers)",
			len(rep.Shards), refused, presolved, stragglers)
	}
	return rep
}

func cmdWhy(w io.Writer, e *decisionlog.Entry, committee int, asJSON bool) error {
	rep := explainWhy(e, committee)
	if asJSON {
		return writeJSON(w, rep)
	}
	fmt.Fprintf(w, "epoch %d, committee %d: %s — %s\n", rep.Epoch, rep.Committee, rep.Outcome, rep.Reason)
	for _, v := range rep.Shards {
		row := "shard"
		if v.Outcome == "presolved" {
			row = "presolved"
		}
		fmt.Fprintf(w, "  %s[%d]: %d TXs, latency %.1f, age %.1f, value %.1f", row, v.Index, v.Size, v.Latency, v.Age, v.Value)
		if v.Carried > 0 {
			fmt.Fprintf(w, ", carried %d epochs", v.Carried)
		}
		fmt.Fprintf(w, "\n    %s: %s\n", v.Outcome, v.Reason)
	}
	for _, d := range rep.Deferrals {
		if d.Kind == decisionlog.Expired {
			fmt.Fprintf(w, "  this epoch: a shard EXPIRED after %d deferrals (MaxDeferrals=%d)\n", d.Deferrals, d.MaxDeferrals)
		} else {
			fmt.Fprintf(w, "  this epoch: a shard was deferred again (carry %d)\n", d.Deferrals)
		}
	}
	return nil
}

// trajPoint is one epoch of a committee's history. Live/Permitted count
// the committee's shards that epoch (carried deferrals plus the fresh
// block, presolved ones included), BestValue is the highest-valued live
// shard's utility input.
type trajPoint struct {
	Epoch     int     `json:"epoch"`
	Outcome   string  `json:"outcome"`
	Live      int     `json:"live"`
	Permitted int     `json:"permitted"`
	BestValue float64 `json:"bestValue,omitempty"`
	Deferred  int     `json:"deferred,omitempty"`
	Expired   int     `json:"expired,omitempty"`
	Utility   float64 `json:"epochUtility"`
}

func cmdTrajectory(w io.Writer, entries []decisionlog.Entry, committee int, asJSON bool) error {
	var points []trajPoint
	seen := false
	for i := range entries {
		rep := explainWhy(&entries[i], committee)
		p := trajPoint{Epoch: rep.Epoch, Outcome: rep.Outcome, Live: len(rep.Shards), Utility: entries[i].Utility}
		for k, v := range rep.Shards {
			seen = true
			if v.Outcome == "permitted" {
				p.Permitted++
			}
			if k == 0 || v.Value > p.BestValue {
				p.BestValue = v.Value
			}
		}
		for _, d := range rep.Deferrals {
			seen = true
			if d.Kind == decisionlog.Expired {
				p.Expired++
			} else {
				p.Deferred++
			}
		}
		points = append(points, p)
	}
	if !seen {
		return fmt.Errorf("committee %d appears in no journaled epoch", committee)
	}
	if asJSON {
		return writeJSON(w, points)
	}
	fmt.Fprintf(w, "committee %d across %d journaled epochs:\n", committee, len(points))
	fmt.Fprintf(w, "%-7s %-11s %-6s %-10s %-11s %-9s %-9s %s\n",
		"epoch", "outcome", "live", "permitted", "best-value", "deferred", "expired", "epoch-utility")
	for _, p := range points {
		best := "-"
		if p.Live > 0 {
			best = fmt.Sprintf("%.1f", p.BestValue)
		}
		fmt.Fprintf(w, "%-7d %-11s %-6d %-10d %-11s %-9d %-9d %.1f\n",
			p.Epoch, p.Outcome, p.Live, p.Permitted, best, p.Deferred, p.Expired, p.Utility)
	}
	return nil
}

// diffReport is the machine-readable epoch-to-epoch comparison.
type diffReport struct {
	EpochA       int     `json:"epochA"`
	EpochB       int     `json:"epochB"`
	UtilityDelta float64 `json:"utilityDelta"`
	LoadDelta    int     `json:"loadDelta"`
	CountDelta   int     `json:"countDelta"`
	// Gained/Lost are committee IDs newly permitted / no longer permitted.
	Gained []int `json:"gained,omitempty"`
	Lost   []int `json:"lost,omitempty"`
	// Arrived/Departed are committee IDs that entered/left the live set.
	Arrived      []int  `json:"arrived,omitempty"`
	Departed     []int  `json:"departed,omitempty"`
	SolverChange string `json:"solverChange,omitempty"`
}

func selectedCommittees(e *decisionlog.Entry) map[int]bool {
	out := make(map[int]bool, len(e.Selected))
	for _, li := range e.Selected {
		if li >= 0 && li < len(e.Shards) {
			out[e.Shards[li].Committee] = true
		}
	}
	return out
}

// liveCommittees is the epoch's live set: the instance's committees and
// the presolved ones.
func liveCommittees(e *decisionlog.Entry) map[int]bool {
	out := make(map[int]bool, len(e.Shards)+len(e.Presolved))
	for i := range e.Shards {
		out[e.Shards[i].Committee] = true
	}
	for i := range e.Presolved {
		out[e.Presolved[i].Committee] = true
	}
	return out
}

func sortedDiff(a, b map[int]bool) (onlyA []int) {
	for k := range a {
		if !b[k] {
			onlyA = append(onlyA, k)
		}
	}
	sortInts(onlyA)
	return onlyA
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func cmdDiff(w io.Writer, a, b *decisionlog.Entry, asJSON bool) error {
	selA, selB := selectedCommittees(a), selectedCommittees(b)
	liveA, liveB := liveCommittees(a), liveCommittees(b)
	rep := diffReport{
		EpochA: a.Epoch, EpochB: b.Epoch,
		UtilityDelta: b.Utility - a.Utility,
		LoadDelta:    b.Load - a.Load,
		CountDelta:   b.Count - a.Count,
		Gained:       sortedDiff(selB, selA),
		Lost:         sortedDiff(selA, selB),
		Arrived:      sortedDiff(liveB, liveA),
		Departed:     sortedDiff(liveA, liveB),
	}
	if a.Solver != b.Solver {
		rep.SolverChange = fmt.Sprintf("%+v -> %+v", a.Solver, b.Solver)
	}
	if asJSON {
		return writeJSON(w, rep)
	}
	fmt.Fprintf(w, "epoch %d -> %d: utility %+.1f (%.1f -> %.1f), load %+d, permitted %+d\n",
		rep.EpochA, rep.EpochB, rep.UtilityDelta, a.Utility, b.Utility, rep.LoadDelta, rep.CountDelta)
	fmt.Fprintf(w, "  newly permitted committees: %v\n", rep.Gained)
	fmt.Fprintf(w, "  no longer permitted:        %v\n", rep.Lost)
	if len(rep.Arrived) > 0 || len(rep.Departed) > 0 {
		fmt.Fprintf(w, "  live set: +%v -%v\n", rep.Arrived, rep.Departed)
	}
	if rep.SolverChange != "" {
		fmt.Fprintf(w, "  solver changed: %s\n", rep.SolverChange)
	}
	return nil
}

// cmdVerify replays the journal's entries (or one epoch's); torn reports
// the torn final line ReadDir skipped.
func cmdVerify(w io.Writer, entries []decisionlog.Entry, torn bool, rest []string, asJSON bool) error {
	if len(rest) == 1 {
		e, err := oneEpoch(entries, rest, "verify")
		if err != nil {
			return err
		}
		entries = []decisionlog.Entry{*e}
	} else if len(rest) > 1 {
		return fmt.Errorf("verify takes at most one epoch")
	}
	st := decisionlog.VerifyAll(entries)
	st.TornTail = torn
	if asJSON {
		if err := writeJSON(w, st); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "%d entries: %d replayed bit-identically, %d skipped (non-replayable), %d failed\n",
			st.Entries, st.Replayed, st.Skipped, st.Failed)
		if st.TornTail {
			fmt.Fprintln(w, "  torn tail: the last segment's final line lacks its newline (an append cut short) and was skipped")
		}
		for _, msg := range st.Errors {
			fmt.Fprintf(w, "  FAIL: %s\n", msg)
		}
	}
	if !st.Ok() {
		return fmt.Errorf("%d of %d entries diverged on replay", st.Failed, st.Entries)
	}
	return nil
}

// selectedMask expands the entry's selected indices over its shard count.
func selectedMask(e *decisionlog.Entry) []bool {
	mask := make([]bool, len(e.Shards))
	for _, i := range e.Selected {
		if i >= 0 && i < len(mask) {
			mask[i] = true
		}
	}
	return mask
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
