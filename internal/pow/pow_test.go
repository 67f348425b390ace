package pow

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mvcom/internal/randx"
)

func TestElectionRunSorted(t *testing.T) {
	solvers, err := Election{}.Run(randx.New(1), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(solvers) != 100 {
		t.Fatalf("solvers %d", len(solvers))
	}
	if !sort.SliceIsSorted(solvers, func(i, j int) bool {
		return solvers[i].SolveAt < solvers[j].SolveAt
	}) {
		t.Fatal("solvers not sorted by solve time")
	}
	seen := make(map[int]bool)
	for _, s := range solvers {
		if seen[s.Node] {
			t.Fatalf("node %d appears twice", s.Node)
		}
		seen[s.Node] = true
	}
}

func TestElectionMeanSolve(t *testing.T) {
	solvers, err := Election{MeanSolve: 600 * time.Second}.Run(randx.New(2), 40000)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range solvers {
		sum += s.SolveAt.Seconds()
	}
	mean := sum / float64(len(solvers))
	// Hash-rate heterogeneity (lognormal mean-1 divisor) inflates the mean
	// slightly; accept a ±10% band around 600 s.
	if math.Abs(mean-600) > 60 {
		t.Fatalf("mean solve %.1f s, want ~600", mean)
	}
}

func TestElectionErrors(t *testing.T) {
	if _, err := (Election{}).Run(randx.New(1), 0); err != ErrNoNodes {
		t.Fatalf("err = %v", err)
	}
}

func TestElectionDeterministic(t *testing.T) {
	a, _ := Election{}.Run(randx.New(7), 50)
	b, _ := Election{}.Run(randx.New(7), 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestFormCommittees(t *testing.T) {
	solvers, err := Election{}.Run(randx.New(3), 120)
	if err != nil {
		t.Fatal(err)
	}
	coms, err := FormCommittees(solvers, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(coms) != 5 {
		t.Fatalf("committees %d", len(coms))
	}
	seen := make(map[int]bool)
	for _, c := range coms {
		if len(c.Members) != 20 {
			t.Fatalf("committee %d has %d members", c.ID, len(c.Members))
		}
		if c.FormedAt <= 0 {
			t.Fatalf("committee %d FormedAt %v", c.ID, c.FormedAt)
		}
		for _, m := range c.Members {
			if seen[m] {
				t.Fatalf("node %d in two committees", m)
			}
			seen[m] = true
		}
	}
}

func TestFormCommitteesFormedAtIsMaxMemberSolve(t *testing.T) {
	solvers := []Solver{
		{Node: 0, SolveAt: 1 * time.Second},
		{Node: 1, SolveAt: 2 * time.Second},
		{Node: 2, SolveAt: 3 * time.Second},
		{Node: 3, SolveAt: 10 * time.Second},
	}
	coms, err := FormCommittees(solvers, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: committee 0 gets solvers 0,2; committee 1 gets 1,3.
	if coms[0].FormedAt != 3*time.Second {
		t.Fatalf("committee 0 FormedAt %v", coms[0].FormedAt)
	}
	if coms[1].FormedAt != 10*time.Second {
		t.Fatalf("committee 1 FormedAt %v", coms[1].FormedAt)
	}
}

func TestFormCommitteesErrors(t *testing.T) {
	solvers := make([]Solver, 10)
	if _, err := FormCommittees(solvers, 0, 5); err != ErrBadSeats {
		t.Fatalf("err = %v", err)
	}
	if _, err := FormCommittees(solvers, 5, 0); err != ErrBadSeats {
		t.Fatalf("err = %v", err)
	}
	if _, err := FormCommittees(solvers, 3, 4); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("err = %v", err)
	}
}

func TestFormCommitteesPartitionProperty(t *testing.T) {
	f := func(seed int64, rawComs, rawSeats uint8) bool {
		coms := int(rawComs)%6 + 1
		seats := int(rawSeats)%8 + 1
		solvers, err := Election{}.Run(randx.New(seed), coms*seats+5)
		if err != nil {
			return false
		}
		formed, err := FormCommittees(solvers, coms, seats)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range formed {
			if len(c.Members) != seats {
				return false
			}
			for _, m := range c.Members {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
			// FormedAt must equal the max solve time of its members.
			var maxAt time.Duration
			for _, s := range solvers {
				for _, m := range c.Members {
					if s.Node == m && s.SolveAt > maxAt {
						maxAt = s.SolveAt
					}
				}
			}
			if c.FormedAt != maxAt {
				return false
			}
		}
		return len(seen) == coms*seats
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFormCommitteesFormedAtFollowsID checks the order the epoch
// pipeline's committee loop relies on: seats are dealt round-robin in
// solve order, so committee c's last seat is solver (seats−1)·|I| + c
// and FormedAt never decreases with the committee ID.
func TestFormCommitteesFormedAtFollowsID(t *testing.T) {
	f := func(seed int64, rawComs, rawSeats, rawExtra uint8) bool {
		coms := int(rawComs)%40 + 1
		seats := int(rawSeats)%20 + 1
		solvers, err := Election{}.Run(randx.New(seed), coms*seats+int(rawExtra)%16)
		if err != nil {
			return false
		}
		formed, err := FormCommittees(solvers, coms, seats)
		if err != nil {
			return false
		}
		for c := 1; c < len(formed); c++ {
			if formed[c].ID != c || formed[c].FormedAt < formed[c-1].FormedAt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
