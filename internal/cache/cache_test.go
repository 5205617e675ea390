package cache

import (
	"testing"
	"testing/quick"

	"mtmalloc/internal/xrand"
)

func newTest() *Model { return NewModel(4, DefaultCosts()) }

// cost is Access without the fill classification.
func cost(m *Model, cpu int, l *Line, write bool) int64 {
	c, _, _ := m.Access(cpu, l, write)
	return c
}

func TestColdReadThenHit(t *testing.T) {
	m := newTest()
	var l Line
	if c := cost(m, 0, &l, false); c != m.costs.MissMemory {
		t.Fatalf("cold read cost %d, want %d", c, m.costs.MissMemory)
	}
	if c := cost(m, 0, &l, false); c != hitCost {
		t.Fatalf("second read cost %d, want hit", c)
	}
	st := m.Stats()[0]
	if st.ColdMisses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteThenWriteHit(t *testing.T) {
	m := newTest()
	var l Line
	m.Access(1, &l, true)
	if c := cost(m, 1, &l, true); c != hitCost {
		t.Fatalf("owned write cost %d, want hit", c)
	}
}

func TestUpgradeFromSoleSharer(t *testing.T) {
	m := newTest()
	var l Line
	m.Access(2, &l, false) // cold read, sole clean copy
	if c := cost(m, 2, &l, true); c != m.costs.Upgrade {
		t.Fatalf("upgrade cost %d, want %d", c, m.costs.Upgrade)
	}
}

func TestRemoteDirtyReadTransfers(t *testing.T) {
	m := newTest()
	var l Line
	m.Access(0, &l, true) // cpu0 owns dirty
	if c := cost(m, 1, &l, false); c != m.costs.MissRemote {
		t.Fatalf("remote read cost %d, want %d", c, m.costs.MissRemote)
	}
	// Both now share it clean: reads hit on both.
	if c := cost(m, 0, &l, false); c != hitCost {
		t.Fatalf("previous owner read cost %d, want hit", c)
	}
	if c := cost(m, 1, &l, false); c != hitCost {
		t.Fatalf("new sharer read cost %d, want hit", c)
	}
}

func TestPingPongWrites(t *testing.T) {
	m := newTest()
	var l Line
	m.Access(0, &l, true)
	flips := m.OwnerFlips
	for i := 0; i < 10; i++ {
		cpu := i % 2
		c := cost(m, cpu, &l, true)
		if i == 0 && cpu == 0 {
			continue
		}
		if c != m.costs.MissRemote && c != hitCost {
			t.Fatalf("iteration %d cost %d", i, c)
		}
	}
	if m.OwnerFlips < flips+9 {
		t.Fatalf("OwnerFlips = %d, want alternating ownership", m.OwnerFlips)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	m := newTest()
	var l Line
	m.Access(0, &l, false)
	m.Access(1, &l, false)
	m.Access(2, &l, false)
	m.Access(3, &l, true) // had no copy; others shared clean
	st := m.Stats()
	if st[0].Invalidated != 1 || st[1].Invalidated != 1 || st[2].Invalidated != 1 {
		t.Fatalf("invalidations not charged: %+v", st)
	}
	// After the write, a read by 0 misses again.
	if c := cost(m, 0, &l, false); c == hitCost {
		t.Fatal("stale sharer still hit after invalidation")
	}
}

func TestSteadyWriteCost(t *testing.T) {
	m := newTest()
	if m.SteadyWriteCost(0) != hitCost || m.SteadyWriteCost(1) != hitCost {
		t.Fatal("solo writer must pay hit cost")
	}
	two := m.SteadyWriteCost(2)
	four := m.SteadyWriteCost(4)
	if two <= hitCost {
		t.Fatal("two writers must cost more than a hit")
	}
	if four <= two {
		t.Fatal("more writers must not get cheaper")
	}
	if four > hitCost+m.costs.MissRemote {
		t.Fatal("steady cost exceeds one remote transfer per write")
	}
}

// Property: after any access sequence, a line has at most one dirty owner,
// and an owner is always in the sharer set implied by the state encoding.
func TestSingleOwnerInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		m := newTest()
		r := xrand.New(seed, 0)
		lines := make([]Line, 4)
		for i := 0; i < 2000; i++ {
			m.Access(r.Intn(4), &lines[r.Intn(len(lines))], r.Intn(2) == 0)
		}
		for _, l := range lines {
			if l.owner != 0 {
				if l.sharers != 1<<uint(l.owner-1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost of any single access is one of the four model constants.
func TestCostsAreFromModel(t *testing.T) {
	m := newTest()
	r := xrand.New(7, 7)
	valid := map[int64]bool{
		hitCost: true, m.costs.MissMemory: true,
		m.costs.MissRemote: true, m.costs.Upgrade: true,
	}
	lines := make([]Line, 8)
	for i := 0; i < 5000; i++ {
		c := cost(m, r.Intn(4), &lines[r.Intn(len(lines))], r.Intn(2) == 0)
		if !valid[c] {
			t.Fatalf("access returned unknown cost %d", c)
		}
	}
}

func BenchmarkAccessHit(b *testing.B) {
	m := newTest()
	var l Line
	m.Access(0, &l, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(0, &l, true)
	}
}

func BenchmarkAccessPingPong(b *testing.B) {
	m := newTest()
	var l Line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(i%2, &l, true)
	}
}
