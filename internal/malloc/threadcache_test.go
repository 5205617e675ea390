package malloc

import (
	"fmt"
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

func TestKindsIncludesThreadCache(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 7 {
		t.Fatalf("Kinds() = %v, want the 5 designs and 2 offloaded kinds", kinds)
	}
	for _, want := range []Kind{KindThreadCache, KindLockFree, KindThreadCacheSvc, KindLockFreeSvc} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Kinds() = %v missing %q", kinds, want)
		}
	}
}

// TestThreadCacheBatchAccounting pins down the refill/flush arithmetic: one
// miss pulls a whole batch under one lock, subsequent mallocs of the class
// are lock-free hits, frees park locally, and detach returns everything.
func TestThreadCacheBatchAccounting(t *testing.T) {
	m, as := newWorld(2, 41)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		batch := uint64(al.batch)
		var ps []uint64
		for i := uint64(0); i < batch; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		st := al.Stats()
		if st.CacheMisses != 1 || st.CacheRefills != 1 {
			t.Errorf("misses=%d refills=%d, want 1/1", st.CacheMisses, st.CacheRefills)
		}
		if st.CacheHits != batch-1 {
			t.Errorf("hits=%d, want %d (batch minus the missing malloc)", st.CacheHits, batch-1)
		}
		if got := al.Arenas()[0].Stats().Mallocs; got != batch {
			t.Errorf("arena mallocs=%d, want exactly one batch of %d", got, batch)
		}
		if st.Heap.Mallocs != batch {
			t.Errorf("user mallocs=%d, want %d", st.Heap.Mallocs, batch)
		}

		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st = al.Stats()
		if got := al.Arenas()[0].Stats().Frees; got != 0 {
			t.Errorf("arena frees=%d, want 0 (all frees parked in the cache)", got)
		}
		if st.Heap.Frees != batch {
			t.Errorf("user frees=%d, want %d", st.Heap.Frees, batch)
		}
		if st.CachedChunks != int(batch) {
			t.Errorf("cached chunks=%d, want %d", st.CachedChunks, batch)
		}

		al.DetachThread(main)
		st = al.Stats()
		if got := al.Arenas()[0].Stats().Frees; got != 0 {
			t.Errorf("arena frees after detach=%d, want 0 (magazine donated to the depot)", got)
		}
		if st.CachedChunks != 0 {
			t.Errorf("cached chunks after detach=%d, want 0", st.CachedChunks)
		}
		if st.DepotChunks != int(batch) {
			t.Errorf("depot chunks after detach=%d, want %d", st.DepotChunks, batch)
		}
		if st.DepotDonates == 0 {
			t.Error("detach donated no spans to the depot")
		}

		// The next miss is served by the depot span, not an arena refill.
		if _, err := al.Malloc(main, 64); err != nil {
			t.Errorf("Malloc after detach: %v", err)
			return
		}
		st = al.Stats()
		if st.DepotHits != 1 {
			t.Errorf("depot hits=%d, want 1", st.DepotHits)
		}
		if got := al.Arenas()[0].Stats().Mallocs; got != batch {
			t.Errorf("arena mallocs=%d after depot hit, want still %d", got, batch)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheFlushHighWater verifies a class crossing its high-water
// mark releases its oldest portion — as whole spans donated to the depot,
// with no arena lock traffic.
func TestThreadCacheFlushHighWater(t *testing.T) {
	m, as := newWorld(2, 43)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.batch, al.highWater = 4, 8
		const n = 20
		var ps []uint64
		for i := 0; i < n; i++ {
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
		if st.DepotDonates < 2 {
			t.Errorf("depot donates=%d, want >= 2 over %d frees with high water %d", st.DepotDonates, n, al.highWater)
		}
		if st.CachedChunks > al.highWater {
			t.Errorf("cached chunks=%d exceed high water %d", st.CachedChunks, al.highWater)
		}
		if got := al.Arenas()[0].Stats().Frees; got != 0 {
			t.Errorf("arena frees=%d, want 0 (releases donated to the depot)", got)
		}
		if st.CachedChunks+st.DepotChunks != n {
			t.Errorf("cached %d + depot %d chunks, want %d parked in total", st.CachedChunks, st.DepotChunks, n)
		}
		if st.Heap.Frees != n {
			t.Errorf("user frees=%d, want %d", st.Heap.Frees, n)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheFlushNoDepot pins the PR-1 fallback: with the depot
// disabled, a class crossing its (fixed) high-water mark flushes its oldest
// portion chunk by chunk into the owning arenas.
func TestThreadCacheFlushNoDepot(t *testing.T) {
	m, as := newWorld(2, 43)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.DepotCapBytes = -1
		costs.CacheAdaptive = -1
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.batch, al.highWater = 4, 8
		const n = 20
		var ps []uint64
		for i := 0; i < n; i++ {
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
		if st.CacheFlushes < 2 {
			t.Errorf("flushes=%d, want >= 2 over %d frees with high water %d", st.CacheFlushes, n, al.highWater)
		}
		if st.CachedChunks > al.highWater {
			t.Errorf("cached chunks=%d exceed high water %d", st.CachedChunks, al.highWater)
		}
		if got := al.Arenas()[0].Stats().Frees; got == 0 {
			t.Error("no frees reached the arena despite flushes")
		}
		if st.DepotDonates != 0 || st.DepotHits != 0 {
			t.Errorf("depot counters %d/%d moved with the depot disabled", st.DepotDonates, st.DepotHits)
		}
		if st.Heap.Frees != n {
			t.Errorf("user frees=%d, want %d", st.Heap.Frees, n)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheMixedOpsAcrossThreads drives malloc/free from several
// threads with cross-thread frees through a shared mailbox, checking data
// stamps and the structural invariants.
func TestThreadCacheMixedOpsAcrossThreads(t *testing.T) {
	m, as := newWorld(2, 47)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		type obj struct {
			p     uint64
			stamp byte
		}
		var mailbox []obj
		space := al.AddressSpace()
		var ws []*sim.Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, main.Spawn(fmt.Sprintf("w%d", i), func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				r := xrand.New(47, uint64(w.ID()))
				for j := 0; j < 1500; j++ {
					switch {
					case len(mailbox) > 0 && r.Intn(4) == 0:
						o := mailbox[len(mailbox)-1]
						mailbox = mailbox[:len(mailbox)-1]
						if space.Read8(w, o.p) != o.stamp {
							t.Errorf("stamp corrupted at %x", o.p)
							return
						}
						if err := al.Free(w, o.p); err != nil {
							t.Errorf("Free: %v", err)
							return
						}
					default:
						p, err := al.Malloc(w, uint32(1+r.Intn(500)))
						if err != nil {
							t.Errorf("Malloc: %v", err)
							return
						}
						stamp := byte(j | 1)
						space.Write8(w, p, stamp)
						mailbox = append(mailbox, obj{p, stamp})
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		for _, o := range mailbox {
			if space.Read8(main, o.p) != o.stamp {
				t.Errorf("stamp corrupted at %x", o.p)
				return
			}
			if err := al.Free(main, o.p); err != nil {
				t.Errorf("drain Free: %v", err)
				return
			}
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		st := al.Stats()
		if st.Heap.Mallocs != st.Heap.Frees {
			t.Errorf("mallocs %d != frees %d", st.Heap.Mallocs, st.Heap.Frees)
		}
		if st.TrylockFailures != 0 {
			t.Errorf("trylock failures = %d, want 0 (threadcache never trylocks)", st.TrylockFailures)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheBeatsPerThread is the scaling assertion: on benchmark 1's
// malloc/free loop at four threads, the thread cache must be at least as
// fast as the per-thread-arena design, because its steady state replaces a
// lock round-trip plus full malloc work per op with one cache pop/push.
func TestThreadCacheBeatsPerThread(t *testing.T) {
	elapsed := func(kind Kind) sim.Time {
		m, as := newWorld(4, 53)
		var total sim.Time
		err := m.Run(func(main *sim.Thread) {
			al, err := New(main, kind, as, heap.DefaultParams(), DefaultCostParams())
			if err != nil {
				t.Errorf("New(%s): %v", kind, err)
				return
			}
			var ws []*sim.Thread
			for i := 0; i < 4; i++ {
				ws = append(ws, main.Spawn(fmt.Sprintf("w%d", i), func(w *sim.Thread) {
					al.AttachThread(w)
					defer al.DetachThread(w)
					for j := 0; j < 3000; j++ {
						p, err := al.Malloc(w, 512)
						if err != nil {
							t.Errorf("Malloc: %v", err)
							return
						}
						if err := al.Free(w, p); err != nil {
							t.Errorf("Free: %v", err)
							return
						}
					}
				}))
			}
			for _, w := range ws {
				main.Join(w)
				total += w.Elapsed()
			}
			if err := al.Check(); err != nil {
				t.Errorf("Check(%s): %v", kind, err)
			}
			if kind == KindThreadCache {
				if tf := al.Stats().TrylockFailures; tf != 0 {
					t.Errorf("threadcache trylock failures = %d, want 0", tf)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	pt := elapsed(KindPerThread)
	tc := elapsed(KindThreadCache)
	if tc > pt {
		t.Errorf("threadcache slower than perthread on the bench-1 loop: %d vs %d cycles", tc, pt)
	}
}

// TestThreadCachePoolBounded: T threads cost at most min(T, CPUs) arenas
// (plus overflow growth), unlike PerThread's arena per thread.
func TestThreadCachePoolBounded(t *testing.T) {
	m, as := newWorld(4, 59)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		var ws []*sim.Thread
		for i := 0; i < 8; i++ {
			ws = append(ws, main.Spawn(fmt.Sprintf("w%d", i), func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				var ps []uint64
				for j := 0; j < 100; j++ {
					p, err := al.Malloc(w, 128)
					if err != nil {
						t.Errorf("Malloc: %v", err)
						return
					}
					ps = append(ps, p)
				}
				for _, p := range ps {
					if err := al.Free(w, p); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		if got := len(al.Arenas()); got > 4 {
			t.Errorf("arena pool grew to %d on a 4-CPU machine, want <= 4", got)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheMmapOnlyThreadPaysNoArena: a thread whose allocations all
// cross the mmap threshold must not trigger arena assignment or creation.
func TestThreadCacheMmapOnlyThreadPaysNoArena(t *testing.T) {
	m, as := newWorld(2, 61)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		w := main.Spawn("mmap-only", func(w *sim.Thread) {
			p, err := al.Malloc(w, 256*1024)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			if err := al.Free(w, p); err != nil {
				t.Errorf("Free: %v", err)
			}
		})
		main.Join(w)
		if got := al.Stats().ArenaCreations; got != 0 {
			t.Errorf("mmap-only thread caused %d arena creations", got)
		}
		if got := al.Stats().MmapDirect; got != 1 {
			t.Errorf("MmapDirect = %d, want 1", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveMarkGrowsOnHitStreak: steady lock-free hits slow-start a
// class's mark from one batch up toward CacheHigh; the fixed-mark mode
// never moves.
func TestAdaptiveMarkGrowsOnHitStreak(t *testing.T) {
	run := func(adaptive int) Stats {
		m, as := newWorld(2, 89)
		var st Stats
		err := m.Run(func(main *sim.Thread) {
			costs := DefaultCostParams()
			costs.CacheAdaptive = adaptive
			al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
			if err != nil {
				t.Errorf("NewThreadCache: %v", err)
				return
			}
			al.batch, al.highWater, al.growStreak = 4, 16, 8
			// Malloc/free pairs: every pop after the first refill is a hit.
			for i := 0; i < 100; i++ {
				p, err := al.Malloc(main, 64)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				if err := al.Free(main, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
			st = al.Stats()
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ad := run(0)
	if ad.CacheMarkGrows == 0 {
		t.Errorf("adaptive marks never grew over 100 hit pairs: %+v grows", ad.CacheMarkGrows)
	}
	fixed := run(-1)
	if fixed.CacheMarkGrows != 0 || fixed.CacheMarkShrinks != 0 {
		t.Errorf("fixed marks moved: grows=%d shrinks=%d", fixed.CacheMarkGrows, fixed.CacheMarkShrinks)
	}
}

// TestAdaptiveMarkShrinksOnFlushPressure: after hit streaks have grown the
// mark, a free storm (many more frees than allocations outstanding) flushes
// the class repeatedly and walks the mark back down.
func TestAdaptiveMarkShrinksOnFlushPressure(t *testing.T) {
	m, as := newWorld(2, 97)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.batch, al.highWater, al.growStreak = 4, 16, 8
		// Grow the mark with pair traffic first.
		for i := 0; i < 100; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		grown := al.Stats().CacheMarkGrows
		if grown == 0 {
			t.Fatal("precondition failed: mark never grew")
		}
		// Free storm: allocate a pile, then free it all back.
		var ps []uint64
		for i := 0; i < 60; i++ {
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
		if st.CacheMarkShrinks == 0 {
			t.Error("flush storm never shrank the adaptive mark")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThreadCacheMmapReuse: freeing an above-threshold chunk parks its
// region; the next same-size request reuses it with no mmap syscall and no
// fresh first-touch faults.
func TestThreadCacheMmapReuse(t *testing.T) {
	m, as := newWorld(2, 101)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		const sz = 256 * 1024
		p, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		// Touch the payload so the region's pages are faulted in.
		space := al.AddressSpace()
		for off := uint64(0); off < sz; off += 4096 {
			space.Write8(main, p+off, 0xAB)
		}
		vs := space.Stats()
		mmaps, munmaps, faults := vs.MmapCalls, vs.MunmapCalls, vs.MinorFaults
		if err := al.Free(main, p); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		q, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc 2: %v", err)
			return
		}
		if q != p {
			t.Errorf("second mmap chunk at 0x%x, want reused 0x%x", q, p)
		}
		for off := uint64(0); off < sz; off += 4096 {
			space.Read8(main, q+off)
		}
		vs = space.Stats()
		if vs.MmapCalls != mmaps || vs.MunmapCalls != munmaps {
			t.Errorf("reuse made syscalls: mmap %d->%d munmap %d->%d", mmaps, vs.MmapCalls, munmaps, vs.MunmapCalls)
		}
		if vs.MinorFaults != faults {
			t.Errorf("reused region re-faulted: %d -> %d", faults, vs.MinorFaults)
		}
		if vs.MmapReuses != 1 || vs.MmapReuseBytes == 0 {
			t.Errorf("reuse stats = %d/%d, want 1/nonzero", vs.MmapReuses, vs.MmapReuseBytes)
		}
		if err := al.Free(main, q); err != nil {
			t.Errorf("Free 2: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMmapDoubleFreeRejectedWithReuse: parking a region must not let a
// double free park it twice — the second free errors, and subsequent
// above-threshold allocations get distinct regions.
func TestMmapDoubleFreeRejectedWithReuse(t *testing.T) {
	m, as := newWorld(2, 103)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		const sz = 256 * 1024
		p, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		if err := al.Free(main, p); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		if err := al.Free(main, p); err == nil {
			t.Error("double free of a parked mmap chunk succeeded")
		}
		q1, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc q1: %v", err)
			return
		}
		q2, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc q2: %v", err)
			return
		}
		if q1 == q2 {
			t.Errorf("two live allocations alias one region at 0x%x", q1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
