package heap

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

func withBuddy(t *testing.T, cpus, zonePages int, body func(th *sim.Thread, b *Buddy)) {
	t.Helper()
	m := sim.NewMachine(sim.Config{CPUs: cpus, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(cpus, cache.DefaultCosts())
	as := vm.New(1, m, c)
	b := NewBuddy(as, "buddy", zonePages, -1)
	if err := m.Run(func(th *sim.Thread) { body(th, b) }); err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Errorf("post-run Check: %v", err)
	}
}

func TestBuddyAllocFreeCoalesce(t *testing.T) {
	withBuddy(t, 1, 64, func(th *sim.Thread, b *Buddy) {
		a1, err := b.Alloc(th, 1)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := b.Alloc(th, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a1 == a2 {
			t.Fatalf("two allocations at the same address %#x", a1)
		}
		st := b.Stats()
		// First alloc splits the top block all the way down: 6 splits for a
		// 64-page zone; second is served from the freed level-0 buddy.
		if st.Splits != 6 {
			t.Errorf("Splits = %d, want 6", st.Splits)
		}
		if st.AllocPages != 2 || st.FreePages != 62 {
			t.Errorf("pages = %d alloc/%d free, want 2/62", st.AllocPages, st.FreePages)
		}
		if err := b.Check(); err != nil {
			t.Fatal(err)
		}
		if err := b.Free(th, a1, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.Free(th, a2, 1); err != nil {
			t.Fatal(err)
		}
		st = b.Stats()
		// Both frees coalesce everything back into one top-order block.
		if st.FreePages != 64 || st.AllocPages != 0 {
			t.Errorf("pages after frees = %d free/%d alloc, want 64/0", st.FreePages, st.AllocPages)
		}
		if st.Merges != 6 {
			t.Errorf("Merges = %d, want 6 (full coalesce)", st.Merges)
		}
	})
}

func TestBuddyBlockRounding(t *testing.T) {
	withBuddy(t, 1, 64, func(th *sim.Thread, b *Buddy) {
		if got := b.BlockPages(3); got != 4 {
			t.Errorf("BlockPages(3) = %d, want 4", got)
		}
		addr, err := b.Alloc(th, 3)
		if err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.AllocPages != 4 {
			t.Errorf("AllocPages = %d, want 4 (rounded)", st.AllocPages)
		}
		if err := b.Free(th, addr, 3); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuddyGrowAndTooLarge(t *testing.T) {
	withBuddy(t, 1, 16, func(th *sim.Thread, b *Buddy) {
		if _, err := b.Alloc(th, 17); err != ErrBuddyTooLarge {
			t.Errorf("Alloc(17) err = %v, want ErrBuddyTooLarge", err)
		}
		// Two full-zone blocks force a second zone.
		a1, err := b.Alloc(th, 16)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := b.Alloc(th, 16)
		if err != nil {
			t.Fatal(err)
		}
		st := b.Stats()
		if st.Zones != 2 || st.GrowEvents != 2 {
			t.Errorf("zones = %d grow = %d, want 2/2", st.Zones, st.GrowEvents)
		}
		if !b.Contains(a1) || !b.Contains(a2) || b.Contains(0x1) {
			t.Errorf("Contains misroutes")
		}
		if err := b.Free(th, a1, 16); err != nil {
			t.Fatal(err)
		}
		if err := b.Free(th, a2, 16); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBuddyBadFrees(t *testing.T) {
	withBuddy(t, 1, 64, func(th *sim.Thread, b *Buddy) {
		addr, err := b.Alloc(th, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Free(th, addr, 8); err == nil {
			t.Error("wrong-size free not detected")
		}
		if err := b.Free(th, addr, 2); err != nil {
			t.Fatal(err)
		}
		if err := b.Free(th, addr, 2); err == nil {
			t.Error("double free not detected")
		}
		if err := b.Free(th, 0xdeadbeef000, 1); err == nil {
			t.Error("foreign free not detected")
		}
	})
}

func TestBuddyDeterministicLowestFirst(t *testing.T) {
	withBuddy(t, 1, 64, func(th *sim.Thread, b *Buddy) {
		a1, _ := b.Alloc(th, 1)
		a2, _ := b.Alloc(th, 1)
		a3, _ := b.Alloc(th, 1)
		if !(a1 < a2 && a2 < a3) {
			t.Errorf("allocations not lowest-first: %#x %#x %#x", a1, a2, a3)
		}
		// Free the lowest and reallocate: must come back at the same spot.
		if err := b.Free(th, a1, 1); err != nil {
			t.Fatal(err)
		}
		a4, _ := b.Alloc(th, 1)
		if a4 != a1 {
			t.Errorf("realloc after free = %#x, want lowest slot %#x", a4, a1)
		}
	})
}

// TestBuddyTorture churns many simulated threads through mixed-order
// alloc/free cycles (the -race run of the suite exercises the engine's
// goroutine handoffs underneath) and verifies the bitmap invariants and CAS
// accounting afterwards.
func TestBuddyTorture(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 4, ClockMHz: 100, Seed: 7})
	c := cache.NewModel(4, cache.DefaultCosts())
	as := vm.New(1, m, c)
	b := NewBuddy(as, "buddy", 256, -1)
	err := m.Run(func(main *sim.Thread) {
		var kids []*sim.Thread
		for i := 0; i < 8; i++ {
			kids = append(kids, main.Spawn("w", func(w *sim.Thread) {
				type blk struct {
					addr  uint64
					pages int
				}
				var live []blk
				for op := 0; op < 2000; op++ {
					if len(live) > 0 && (w.RNG().Intn(2) == 0 || len(live) > 32) {
						i := w.RNG().Intn(len(live))
						v := live[i]
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
						if err := b.Free(w, v.addr, v.pages); err != nil {
							t.Errorf("Free: %v", err)
							return
						}
					} else {
						pages := 1 << w.RNG().Intn(5) // orders 0..4
						addr, err := b.Alloc(w, pages)
						if err != nil {
							t.Errorf("Alloc(%d): %v", pages, err)
							return
						}
						live = append(live, blk{addr, pages})
					}
					w.MaybeYield()
				}
				for _, v := range live {
					if err := b.Free(w, v.addr, v.pages); err != nil {
						t.Errorf("drain Free: %v", err)
						return
					}
				}
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.AllocPages != 0 {
		t.Errorf("AllocPages = %d after full drain, want 0", st.AllocPages)
	}
	if st.Allocs != st.Frees {
		t.Errorf("Allocs %d != Frees %d after drain", st.Allocs, st.Frees)
	}
	if st.CASAttempts == 0 {
		t.Errorf("torture run recorded no CAS attempts")
	}
	if st.CASFails == 0 {
		t.Errorf("8 threads hammering one buddy produced no CAS retries")
	}
	if st.GrowLockAcqs == 0 || st.GrowLockAcqs != uint64(st.GrowEvents) {
		t.Errorf("grow lock acqs = %d, grow events = %d: grow must be the only locked path",
			st.GrowLockAcqs, st.GrowEvents)
	}
}

// TestBuddyBitmapMemoryMatches verifies the simulated-memory bitmap tracks
// the mirror through a split/merge cycle (Check compares them bit by bit).
func TestBuddyBitmapMemoryMatches(t *testing.T) {
	withBuddy(t, 1, 128, func(th *sim.Thread, b *Buddy) {
		var addrs []uint64
		for i := 0; i < 10; i++ {
			a, err := b.Alloc(th, 1<<uint(i%4))
			if err != nil {
				t.Fatal(err)
			}
			addrs = append(addrs, a)
			if err := b.Check(); err != nil {
				t.Fatalf("after alloc %d: %v", i, err)
			}
		}
		for i, a := range addrs {
			if err := b.Free(th, a, 1<<uint(i%4)); err != nil {
				t.Fatal(err)
			}
			if err := b.Check(); err != nil {
				t.Fatalf("after free %d: %v", i, err)
			}
		}
	})
}
