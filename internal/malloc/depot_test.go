package malloc

import (
	"strings"
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
)

// span4 builds a span of 4 synthetic entries (nil arenas, distinct fake
// addresses starting at base) for direct depot testing.
func span4(base uint64) []tcEntry {
	s := make([]tcEntry, 4)
	for i := range s {
		s[i] = tcEntry{mem: base + uint64(i)*64}
	}
	return s
}

// TestDepotFlavours runs one script on the mutex depot of the mutex kinds
// and on the CAS depot of the lock-free kinds: the policy — span LIFO, byte
// cap, decay remainder, counts, check — must be identical, and only the
// pricing differs. The mutex flavour takes its class lock for every get, put
// and scavenge, misses and refusals included; the CAS flavour never locks
// and updates its stack head only for a successful push or pop, a
// scavenge's detach, and a re-attach of survivors.
func TestDepotFlavours(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lockFree bool
	}{{"mutex", false}, {"cas", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newWorld(1, 3)
			var stats Stats
			// Byte cap: six 4-chunk spans of class 64.
			d := newDepot(m, "d", tc.lockFree, 4*64*6, 45, &stats)
			err := m.Run(func(th *sim.Thread) {
				if _, ok := d.get(th, 64); ok {
					t.Error("empty depot served a span")
				}
				for i := 0; i < 6; i++ {
					if !d.put(th, 64, span4(uint64(0x1000*(i+1)))) {
						t.Errorf("put %d refused below the byte cap", i)
						return
					}
				}
				if d.put(th, 64, span4(0x9000)) {
					t.Error("put above the byte cap accepted")
				}
				if d.chunkCount() != 24 || d.byteCount() != 24*64 {
					t.Errorf("parked = %d chunks / %d bytes, want 24 / %d", d.chunkCount(), d.byteCount(), 24*64)
				}
				// LIFO: the last donation pops first.
				if span, ok := d.get(th, 64); !ok {
					t.Error("full depot served no span")
				} else if span[0].mem != 0x6000 {
					t.Errorf("got span base 0x%x, want LIFO top 0x6000", span[0].mem)
				}
				// 50% of 5 spans = 2.5: the two oldest leave, 50 hundredths
				// carry; next epoch 50% of 3 + 50 = 2 more, none carry.
				for epoch, want := range [][]uint64{{0x1000, 0x2000}, {0x3000, 0x4000}} {
					victims, spans, bytes := d.scavenge(th, th.Now()+1, 50)
					if spans != 2 || len(victims) != 8 || bytes != 8*64 {
						t.Errorf("epoch %d: scavenge = %d spans/%d chunks/%d bytes, want 2/8/%d",
							epoch, spans, len(victims), bytes, 8*64)
						return
					}
					if victims[0].mem != want[0] || victims[4].mem != want[1] {
						t.Errorf("epoch %d: scavenged spans 0x%x, 0x%x, want oldest 0x%x, 0x%x",
							epoch, victims[0].mem, victims[4].mem, want[0], want[1])
					}
				}
				if rem := d.classes[64].decayRem; rem != 0 {
					t.Errorf("decayRem = %d after two epochs, want 0", rem)
				}
				// A full decay detaches the last span with no re-attach.
				if _, spans, _ := d.scavenge(th, th.Now()+1, 100); spans != 1 {
					t.Errorf("full decay took %d spans, want the last 1", spans)
				}
				if !d.put(th, 64, span4(0x7000)) {
					t.Error("put into the drained class refused")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.DepotMisses != 1 || stats.DepotHits != 1 || stats.DepotDonates != 7 || stats.DepotOverflows != 1 {
				t.Errorf("misses/hits/donates/overflows = %d/%d/%d/%d, want 1/1/7/1",
					stats.DepotMisses, stats.DepotHits, stats.DepotDonates, stats.DepotOverflows)
			}
			seen := make(map[uint64]bool)
			if err := d.check(seen, func(tcEntry) error { return nil }); err != nil {
				t.Errorf("check: %v", err)
			}
			if len(seen) != 4 || d.chunkCount() != 4 || d.byteCount() != 4*64 {
				t.Errorf("check visited %d chunks, parked %d / %d bytes, want 4 / 4 / %d",
					len(seen), d.chunkCount(), d.byteCount(), 4*64)
			}

			// Pricing: 2 gets + 8 puts + 3 scavenges lock the mutex class;
			// 7 pushes + 1 pop + 3 detaches + 2 re-attaches update the head.
			dc := d.classes[64]
			var ps Stats
			d.addPointStats(&ps)
			if tc.lockFree {
				if dc.lock != nil || ps.DepotLockAcqs != 0 {
					t.Errorf("CAS depot locked %d times; it must never lock", ps.DepotLockAcqs)
				}
				if got := dc.head.PointStats().Acquisitions; got != 13 || ps.CASAttempts != 13 {
					t.Errorf("CAS updates/attempts = %d/%d, want 13/13", got, ps.CASAttempts)
				}
			} else {
				if dc.head != nil || ps.CASAttempts != 0 {
					t.Errorf("mutex depot made %d CAS attempts, want 0", ps.CASAttempts)
				}
				if dc.lock.Acquisitions != 13 || ps.DepotLockAcqs != 13 {
					t.Errorf("lock acquisitions = %d (stats %d), want 13", dc.lock.Acquisitions, ps.DepotLockAcqs)
				}
			}

			// A byte counter that disagrees with the span list is caught.
			dc.bytes += 64
			err = d.check(make(map[uint64]bool), func(tcEntry) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "byte counter") {
				t.Errorf("check with a corrupted byte counter = %v, want a byte-counter error", err)
			}
		})
	}
}

// TestLFDepotAccounting pins the CAS depot's policy arithmetic against the
// mutex depot's: same hit/miss/donate/overflow counters, same byte caps —
// only the synchronization pricing differs (CAS, and zero lock acquisitions
// by construction).
func TestLFDepotAccounting(t *testing.T) {
	m, _ := newWorld(1, 3)
	var stats Stats
	d := newDepot(m, "lf", true, 4*64*6, 45, &stats) // byte cap: six 4-chunk spans of class 64
	err := m.Run(func(th *sim.Thread) {
		if _, ok := d.get(th, 64); ok {
			t.Error("empty depot served a span")
		}
		if stats.DepotMisses != 1 {
			t.Errorf("DepotMisses = %d, want 1", stats.DepotMisses)
		}
		for i := 0; i < 6; i++ {
			if !d.put(th, 64, span4(uint64(0x1000*(i+1)))) {
				t.Errorf("put %d refused below the byte cap", i)
				return
			}
		}
		if d.put(th, 64, span4(0x9000)) {
			t.Error("put above the byte cap accepted")
		}
		if stats.DepotDonates != 6 || stats.DepotOverflows != 1 {
			t.Errorf("donates/overflows = %d/%d, want 6/1", stats.DepotDonates, stats.DepotOverflows)
		}
		if d.chunkCount() != 24 || d.byteCount() != 24*64 {
			t.Errorf("parked = %d chunks / %d bytes, want 24 / %d", d.chunkCount(), d.byteCount(), 24*64)
		}
		// LIFO: the last donation pops first.
		if span, ok := d.get(th, 64); !ok {
			t.Error("full depot served no span")
		} else if span[0].mem != 0x6000 {
			t.Errorf("got span base 0x%x, want LIFO top 0x6000", span[0].mem)
		}
		if stats.DepotHits != 1 {
			t.Errorf("DepotHits = %d, want 1", stats.DepotHits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var ps Stats
	d.addPointStats(&ps)
	if ps.DepotLockAcqs != 0 {
		t.Errorf("DepotLockAcqs = %d; the lock-free depot must never lock", ps.DepotLockAcqs)
	}
	// 6 accepted puts + 1 successful get = 7 CAS updates; the overflow and
	// the empty get never touch the head word.
	if got := d.classes[64].head.PointStats().Acquisitions; got != 7 || ps.CASAttempts != 7 {
		t.Errorf("CAS updates/attempts = %d/%d, want 7/7", got, ps.CASAttempts)
	}
	seen := make(map[uint64]bool)
	if err := d.check(seen, func(tcEntry) error { return nil }); err != nil {
		t.Errorf("check: %v", err)
	}
	if len(seen) != 20 {
		t.Errorf("check visited %d chunks, want 20", len(seen))
	}
}

// TestLFDepotScavengeSnapshot verifies the CAS depot's detach/re-attach
// scavenge: oldest spans leave first, the fractional decay remainder carries
// across epochs, and the class's byte counter always matches its span list
// afterwards (the no-torn-reads invariant check enforces).
func TestLFDepotScavengeSnapshot(t *testing.T) {
	m, _ := newWorld(1, 3)
	var stats Stats
	d := newDepot(m, "lf", true, 4*64*16, 45, &stats)
	err := m.Run(func(th *sim.Thread) {
		for i := 0; i < 3; i++ {
			if !d.put(th, 64, span4(uint64(0x1000*(i+1)))) {
				t.Error("put refused")
				return
			}
		}
		// 50% of 3 spans = 1.5: one span out now, remainder 50 carried.
		victims, spans, bytes := d.scavenge(th, th.Now()+1, 50)
		if spans != 1 || len(victims) != 4 || bytes != 4*64 {
			t.Errorf("scavenge = %d spans/%d chunks/%d bytes, want 1/4/%d", spans, len(victims), bytes, 4*64)
			return
		}
		if victims[0].mem != 0x1000 {
			t.Errorf("scavenged span base 0x%x, want oldest 0x1000", victims[0].mem)
		}
		if d.classes[64].decayRem != 50 {
			t.Errorf("decayRem = %d, want 50", d.classes[64].decayRem)
		}
		if err := d.check(make(map[uint64]bool), func(tcEntry) error { return nil }); err != nil {
			t.Errorf("check after scavenge: %v", err)
		}
		// Next epoch: 50% of 2 spans + 50 carry = 1.5 -> one more span.
		victims, spans, _ = d.scavenge(th, th.Now()+1, 50)
		if spans != 1 || len(victims) != 4 || victims[0].mem != 0x2000 {
			t.Errorf("second scavenge took %d spans / %d chunks, want one span at the next-oldest 0x2000",
				spans, len(victims))
			return
		}
		if d.chunkCount() != 4 || d.byteCount() != 4*64 {
			t.Errorf("parked after scavenges = %d/%d, want 4 chunks/%d bytes",
				d.chunkCount(), d.byteCount(), 4*64)
		}
		if err := d.check(make(map[uint64]bool), func(tcEntry) error { return nil }); err != nil {
			t.Errorf("check after second scavenge: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 3 pushes + 2 detaches + 2 re-attaches of survivors.
	if got := d.classes[64].head.PointStats().Acquisitions; got != 7 {
		t.Errorf("CAS updates = %d, want 7", got)
	}
}

// TestDepotHitMissDonateAccounting pins the depot arithmetic with fixed
// marks: a flush donates whole spans, a later miss consumes one span under
// the class lock with no arena traffic, and the counters tell the story.
func TestDepotHitMissDonateAccounting(t *testing.T) {
	m, as := newWorld(2, 67)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.CacheBatch = 4
		costs.CacheHigh = 8
		costs.CacheAdaptive = -1 // fixed marks: flush points are deterministic
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		// 12 allocations = 3 arena refills; freeing all 12 crosses the mark
		// at the 9th free (9 > 8): the 5-chunk surplus is rounded down to one
		// whole span of 4, keeping the sub-batch remainder parked.
		var ps []uint64
		for i := 0; i < 12; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st := al.Stats()
		if st.DepotDonates != 1 {
			t.Errorf("depot donates=%d, want 1 (one whole span of 4)", st.DepotDonates)
		}
		if st.DepotChunks != 4 {
			t.Errorf("depot chunks=%d, want 4", st.DepotChunks)
		}
		if st.CachedChunks != 8 {
			t.Errorf("cached chunks=%d, want 8 (5 kept + 3 later frees)", st.CachedChunks)
		}
		arenaFrees := al.Arenas()[0].Stats().Frees
		if arenaFrees != 0 {
			t.Errorf("arena frees=%d, want 0", arenaFrees)
		}

		// Drain the magazine (8 hits), then the next miss consumes the depot
		// span before any arena refill.
		arenaMallocs := al.Arenas()[0].Stats().Mallocs
		for i := 0; i < 12; i++ {
			if _, err := al.Malloc(main, 64); err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
		}
		st = al.Stats()
		if st.DepotHits != 1 {
			t.Errorf("depot hits=%d, want 1", st.DepotHits)
		}
		if st.DepotChunks != 0 {
			t.Errorf("depot chunks=%d, want 0 after both spans consumed", st.DepotChunks)
		}
		if got := al.Arenas()[0].Stats().Mallocs; got != arenaMallocs {
			t.Errorf("arena mallocs=%d, want still %d (depot served the misses)", got, arenaMallocs)
		}
		if st.DepotMisses == 0 {
			t.Error("expected at least one depot miss from the initial refills")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDepotOverflowFallsBackToArena: a full depot class refuses spans, which
// are then freed into the arenas (the bounded-leak guarantee). The byte cap
// holds exactly one span of four 64-byte requests.
func TestDepotOverflowFallsBackToArena(t *testing.T) {
	m, as := newWorld(2, 71)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.CacheBatch = 4
		costs.CacheHigh = 8
		params := heap.DefaultParams()
		costs.DepotCapBytes = 4 * int64(params.Request2Size(64))
		costs.CacheAdaptive = -1
		al, err := NewThreadCache(main, as, params, costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		var ps []uint64
		for i := 0; i < 40; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st := al.Stats()
		if st.DepotOverflows == 0 {
			t.Error("no depot overflows with a one-span cap over 40 frees")
		}
		if st.DepotChunks > 4 {
			t.Errorf("depot chunks=%d exceed the one-span cap of 4", st.DepotChunks)
		}
		if got := al.Arenas()[0].Stats().Frees; got == 0 {
			t.Error("no frees reached the arena despite depot overflow")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushSortsCrossArenaVictims builds an interleaved two-arena victim
// batch and asserts flush takes each arena's lock exactly once.
func TestFlushSortsCrossArenaVictims(t *testing.T) {
	m, as := newWorld(2, 73)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		tc, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		a0 := tc.arenas[0]
		a1, err := tc.growPool(main, tc.shards[0])
		if err != nil {
			t.Errorf("growPool: %v", err)
			return
		}
		alloc := func(a *heap.Arena) tcEntry {
			main.Lock(a.Lock)
			p, err := a.Malloc(main, 64)
			main.Unlock(a.Lock)
			if err != nil {
				t.Fatalf("arena malloc: %v", err)
			}
			return tcEntry{p, a}
		}
		victims := []tcEntry{alloc(a0), alloc(a1), alloc(a0), alloc(a1), alloc(a0), alloc(a1)}
		acq0, acq1 := a0.Lock.Acquisitions, a1.Lock.Acquisitions
		if err := tc.flush(main, victims); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		if d := a0.Lock.Acquisitions - acq0; d != 1 {
			t.Errorf("arena 0 locked %d times for interleaved victims, want 1", d)
		}
		if d := a1.Lock.Acquisitions - acq1; d != 1 {
			t.Errorf("arena 1 locked %d times for interleaved victims, want 1", d)
		}
		if err := tc.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDepotCrossThreadHandoff: a producer thread's donated spans serve a
// consumer thread's misses without the consumer touching the producer's
// arena lock path (benchmark 2's killer pattern).
func TestDepotCrossThreadHandoff(t *testing.T) {
	m, as := newWorld(2, 79)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		var ps []uint64
		producer := main.Spawn("producer", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w) // donates the magazine to the depot
			for i := 0; i < 32; i++ {
				p, err := al.Malloc(w, 64)
				if err != nil {
					t.Errorf("producer Malloc: %v", err)
					return
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				if err := al.Free(w, p); err != nil {
					t.Errorf("producer Free: %v", err)
					return
				}
			}
		})
		main.Join(producer)
		st := al.Stats()
		if st.DepotChunks == 0 {
			t.Fatal("producer detach parked nothing in the depot")
		}
		before := st.ArenaLockAcqs
		consumer := main.Spawn("consumer", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w)
			for i := 0; i < 8; i++ {
				if _, err := al.Malloc(w, 64); err != nil {
					t.Errorf("consumer Malloc: %v", err)
					return
				}
			}
		})
		main.Join(consumer)
		st = al.Stats()
		if st.DepotHits == 0 {
			t.Error("consumer misses never hit the depot")
		}
		if st.ArenaLockAcqs != before {
			t.Errorf("consumer took %d arena lock acquisitions, want 0 (depot-served)", st.ArenaLockAcqs-before)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDepotSpansSurviveCheckAcrossClasses exercises several size classes
// through the depot and keeps the structural checker honest about them.
func TestDepotSpansSurviveCheckAcrossClasses(t *testing.T) {
	m, as := newWorld(2, 83)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		for round := 0; round < 3; round++ {
			var ps []uint64
			for _, sz := range []uint32{24, 64, 200, 1024} {
				for i := 0; i < 30; i++ {
					p, err := al.Malloc(main, sz)
					if err != nil {
						t.Errorf("Malloc(%d): %v", sz, err)
						return
					}
					ps = append(ps, p)
				}
			}
			for _, p := range ps {
				if err := al.Free(main, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
			if err := al.Check(); err != nil {
				t.Errorf("round %d Check: %v", round, err)
				return
			}
		}
		st := al.Stats()
		if st.Heap.Mallocs != st.Heap.Frees {
			t.Errorf("user mallocs %d != frees %d", st.Heap.Mallocs, st.Heap.Frees)
		}
		if st.DepotDonates == 0 {
			t.Error("no depot donations across 3 rounds of 4 classes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDepotByteCapAdmitsSmallSpans pins the D2 co-tuning fix: under the
// byte cap, many small spans — the shape shrunken adaptive marks produce —
// keep fitting where a span-count cap of two would refuse them, while the
// same cap still bounds total parked bytes.
func TestDepotByteCapAdmitsSmallSpans(t *testing.T) {
	m, as := newWorld(2, 107)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.DepotCapBytes = 8192
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		// Donate eight 2-chunk spans of 72-byte chunks (=144B each): far
		// past the span-count cap, nowhere near the byte cap.
		alloc := func() tcEntry {
			a := al.arenas[0]
			main.Lock(a.Lock)
			p, err := a.Malloc(main, 64)
			main.Unlock(a.Lock)
			if err != nil {
				t.Fatalf("arena malloc: %v", err)
			}
			return tcEntry{p, a}
		}
		csz := al.arenas[0].ChunkSizeOf(main, alloc().mem)
		for i := 0; i < 8; i++ {
			span := []tcEntry{alloc(), alloc()}
			if !al.depots[0].put(main, csz, span) {
				t.Fatalf("byte-capped depot refused small span %d", i)
			}
		}
		if got := al.Stats().DepotOverflows; got != 0 {
			t.Errorf("overflows = %d donating 2.3KB against an 8KB byte cap", got)
		}
		// The byte cap still binds: one span pushing past 8KB is refused.
		big := make([]tcEntry, 0, 100)
		for i := 0; i < 100; i++ {
			big = append(big, alloc())
		}
		if al.depots[0].put(main, csz, big) {
			t.Error("7.2KB span accepted on top of 2.3KB parked against an 8KB cap")
		}
		if got := al.Stats().DepotOverflows; got != 1 {
			t.Errorf("overflows = %d after the oversized donation, want 1", got)
		}
		if got := al.depots[0].byteCount(); got > 8192 {
			t.Errorf("depot holds %d bytes, cap 8192", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
