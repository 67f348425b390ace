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
	if p.Added() != 3 || p.Drained() != 2 {
		t.Fatalf("counters %d %d", p.Added(), p.Drained())
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

func TestOldest(t *testing.T) {
	p := New()
	if _, err := p.Oldest(); err != ErrEmpty {
		t.Fatalf("err = %v", err)
	}
	p.Add(tx(1, 30*time.Second))
	p.Add(tx(2, 10*time.Second))
	at, err := p.Oldest()
	if err != nil || at != 10*time.Second {
		t.Fatalf("oldest %v err %v", at, err)
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

func TestCumulativeAge(t *testing.T) {
	p := New()
	p.Add(tx(1, 10*time.Second))
	p.Add(tx(2, 20*time.Second))
	p.Add(tx(3, time.Hour)) // future; must not count
	got := p.CumulativeAge(30 * time.Second)
	if got != 30*time.Second { // 20 + 10
		t.Fatalf("age %v", got)
	}
}

func TestAges(t *testing.T) {
	p := New()
	p.Add(tx(1, 0))
	p.Add(tx(2, 10*time.Second))
	st := p.Ages(20 * time.Second)
	if st.Waiting != 2 || st.Max != 20*time.Second || st.Total != 30*time.Second || st.Mean != 15*time.Second {
		t.Fatalf("stats %+v", st)
	}
	empty := New().Ages(time.Second)
	if empty.Waiting != 0 || empty.Mean != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}

func TestAddBatch(t *testing.T) {
	p := New()
	p.AddBatch([]chain.Transaction{tx(1, time.Second), tx(2, 2*time.Second)})
	if p.Len() != 2 {
		t.Fatalf("len %d", p.Len())
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
		for _, op := range ops {
			switch op % 3 {
			case 0, 1:
				p.Add(tx(rng.Uint64(), now+time.Duration(rng.Intn(100))*time.Second))
			case 2:
				now += time.Duration(rng.Intn(50)) * time.Second
				p.DrainArrived(now, rng.Intn(5))
			}
			if p.Added() != p.Drained()+p.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
