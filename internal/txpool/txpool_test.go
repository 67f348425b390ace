package txpool

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mvcom/internal/chain"
	"mvcom/internal/randx"
)

func tx(id uint64, at time.Duration) chain.Transaction {
	return chain.Transaction{ID: id, Created: at}
}

func TestAddDrainFIFO(t *testing.T) {
	p := New()
	p.Add(tx(2, 20*time.Second))
	p.Add(tx(1, 10*time.Second))
	p.Add(tx(3, 30*time.Second))
	got := p.DrainArrived(25*time.Second, 0)
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("drained %v", got)
	}
	if p.Len() != 1 {
		t.Fatalf("len %d", p.Len())
	}
}

func TestDrainRespectsMax(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.Add(tx(uint64(i), time.Duration(i)*time.Second))
	}
	got := p.DrainArrived(time.Hour, 4)
	if len(got) != 4 {
		t.Fatalf("drained %d", len(got))
	}
	// Oldest first.
	for i, x := range got {
		if x.ID != uint64(i) {
			t.Fatalf("order %v", got)
		}
	}
	if p.Len() != 6 {
		t.Fatalf("len %d", p.Len())
	}
}

func TestDrainNothingArrived(t *testing.T) {
	p := New()
	p.Add(tx(1, time.Hour))
	if got := p.DrainArrived(time.Minute, 0); got != nil {
		t.Fatalf("drained future txs: %v", got)
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	p := New()
	for i := 0; i < 5; i++ {
		p.Add(tx(uint64(i), time.Second))
	}
	got := p.DrainArrived(time.Second, 0)
	for i, x := range got {
		if x.ID != uint64(i) {
			t.Fatalf("same-timestamp order %v", got)
		}
	}
}

func TestDrainOrderProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%100 + 1
		rng := randx.New(seed)
		p := New()
		for i := 0; i < n; i++ {
			p.Add(tx(uint64(i), time.Duration(rng.Intn(1000))*time.Second))
		}
		got := p.DrainArrived(1000*time.Second, 0)
		if len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			return got[i].Created < got[j].Created
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConservationProperty(t *testing.T) {
	// added == drained + waiting at all times.
	f := func(seed int64, ops []uint8) bool {
		rng := randx.New(seed)
		p := New()
		var now time.Duration
		added, drained := 0, 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				p.Add(tx(rng.Uint64(), now+time.Duration(rng.Intn(100))*time.Second))
				added++
			case 2:
				now += time.Duration(rng.Intn(50)) * time.Second
				drained += len(p.DrainArrived(now, rng.Intn(5)))
			}
			if added != drained+p.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
