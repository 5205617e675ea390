package vm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

func testSetup(cpus int) (*sim.Machine, *cache.Model) {
	m := sim.NewMachine(sim.Config{CPUs: cpus, ClockMHz: 100, Seed: 1})
	return m, cache.NewModel(cpus, cache.DefaultCosts())
}

// runAS executes body on a fresh machine/address-space pair.
func runAS(t *testing.T, body func(th *sim.Thread, as *AddressSpace)) *AddressSpace {
	t.Helper()
	m, c := testSetup(1)
	as := New(1, m, c)
	if err := m.Run(func(th *sim.Thread) { body(th, as) }); err != nil {
		t.Fatal(err)
	}
	return as
}

func TestSbrkGrowAndReadWrite(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		old, err := as.Sbrk(th, 8192)
		if err != nil {
			t.Errorf("sbrk: %v", err)
			return
		}
		if old != DataBase {
			t.Errorf("old brk = %x, want %x", old, uint64(DataBase))
		}
		as.Write32(th, old, 0xdeadbeef)
		as.Write64(th, old+8, 0x1122334455667788)
		if got := as.Read32(th, old); got != 0xdeadbeef {
			t.Errorf("Read32 = %x", got)
		}
		if got := as.Read64(th, old+8); got != 0x1122334455667788 {
			t.Errorf("Read64 = %x", got)
		}
	})
	if as.Stats().SbrkCalls != 1 {
		t.Fatalf("SbrkCalls = %d", as.Stats().SbrkCalls)
	}
}

func TestMinorFaultPerPage(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		base, err := as.Sbrk(th, 10*PageSize)
		if err != nil {
			t.Errorf("sbrk: %v", err)
			return
		}
		for i := uint64(0); i < 10; i++ {
			as.Write8(th, base+i*PageSize, 1)   // first touch faults
			as.Write8(th, base+i*PageSize+1, 2) // same page: no fault
		}
	})
	if got := as.Stats().MinorFaults; got != 10 {
		t.Fatalf("MinorFaults = %d, want 10", got)
	}
}

func TestSbrkBlockedByLibrary(t *testing.T) {
	// The brk segment cannot grow past the libc mapping at LibBase: the
	// paper's §3 address-space fragmentation failure.
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		room := int64(LibBase - DataBase)
		if _, err := as.Sbrk(th, room+PageSize); err == nil {
			t.Error("sbrk past library mapping succeeded")
		}
		// Growth that stops short of the library must still work.
		if _, err := as.Sbrk(th, room/2); err != nil {
			t.Errorf("in-bounds sbrk failed: %v", err)
		}
	})
	if as.Stats().SbrkFails != 1 {
		t.Fatalf("SbrkFails = %d", as.Stats().SbrkFails)
	}
}

func TestSbrkShrinkDiscardsPages(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		base, _ := as.Sbrk(th, 4*PageSize)
		for i := uint64(0); i < 4; i++ {
			as.Write8(th, base+i*PageSize, 0xff)
		}
		before := as.Stats().MinorFaults
		if before != 4 {
			t.Errorf("faults before shrink = %d", before)
		}
		if _, err := as.Sbrk(th, -2*PageSize); err != nil {
			t.Errorf("shrink: %v", err)
			return
		}
		// Regrow and touch: the discarded pages fault again and are zeroed.
		if _, err := as.Sbrk(th, 2*PageSize); err != nil {
			t.Errorf("regrow: %v", err)
			return
		}
		if got := as.Read8(th, base+2*PageSize); got != 0 {
			t.Errorf("refaulted page not zeroed: %x", got)
		}
		if got := as.Read8(th, base+3*PageSize); got != 0 {
			t.Errorf("refaulted page not zeroed: %x", got)
		}
		if as.Stats().MinorFaults != before+2 {
			t.Errorf("faults after regrow = %d, want %d", as.Stats().MinorFaults, before+2)
		}
	})
}

func TestSbrkShrinkBelowBaseFails(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		if _, err := as.Sbrk(th, -PageSize); err == nil {
			t.Error("shrink below data base succeeded")
		}
	})
}

func TestMmapMunmap(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		a, err := as.Mmap(th, 3*PageSize, "arena")
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		if a < MmapBase {
			t.Errorf("mmap address %x below mmap base", a)
		}
		as.Write32(th, a, 42)
		b, err := as.Mmap(th, PageSize, "arena2")
		if err != nil {
			t.Errorf("mmap2: %v", err)
			return
		}
		if b < a+3*PageSize {
			t.Errorf("mappings overlap: %x vs %x", a, b)
		}
		if err := as.Munmap(th, a, 3*PageSize); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	st := as.Stats()
	if st.MmapCalls != 2 || st.MunmapCalls != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMunmapReusesAddressSpace(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		a, _ := as.Mmap(th, 2*PageSize, "x")
		as.Write32(th, a, 7)
		if err := as.Munmap(th, a, 2*PageSize); err != nil {
			t.Errorf("munmap: %v", err)
			return
		}
		b, err := as.Mmap(th, 2*PageSize, "y")
		if err != nil {
			t.Errorf("re-mmap: %v", err)
			return
		}
		if b != a {
			t.Errorf("first-fit should reuse freed range: got %x, had %x", b, a)
		}
		if got := as.Read32(th, b); got != 0 {
			t.Errorf("recycled mapping not zeroed: %d", got)
		}
	})
}

func TestMunmapPartialSplitsVMA(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		a, _ := as.Mmap(th, 4*PageSize, "big")
		// Unmap the middle two pages.
		if err := as.Munmap(th, a+PageSize, 2*PageSize); err != nil {
			t.Errorf("munmap middle: %v", err)
			return
		}
		as.Write8(th, a, 1)            // head still mapped
		as.Write8(th, a+3*PageSize, 1) // tail still mapped
		var vmaCount int
		for _, v := range as.VMAs() {
			if v.Name == "big" {
				vmaCount++
			}
		}
		if vmaCount != 2 {
			t.Errorf("split produced %d pieces, want 2", vmaCount)
		}
	})
}

func TestMunmapUnmappedFails(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		if err := as.Munmap(th, MmapBase+0x100000, PageSize); err == nil {
			t.Error("munmap of unmapped range succeeded")
		}
	})
}

func TestSegfaultSurfacesAsError(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		as.Read32(th, 0x1000) // below text: unmapped
	})
	if err == nil || !strings.Contains(err.Error(), "segmentation fault") {
		t.Fatalf("err = %v, want segfault", err)
	}
}

// TestFaultKeepsTypeAndStack: a simulated thread's segfault reaches Run's
// caller as the vm.Fault itself, not just its text, and the error carries
// the goroutine stack down to the faulting access.
func TestFaultKeepsTypeAndStack(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		as.Read32(th, 0x1000) // below text: unmapped
	})
	var f Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want a wrapped vm.Fault", err)
	}
	if f.Addr != 0x1000 || f.Op != "read32" {
		t.Errorf("fault = %+v, want read32 at 0x1000", f)
	}
	if !strings.Contains(err.Error(), "vm.(*AddressSpace).Read32") {
		t.Errorf("error does not name the faulting frame:\n%v", err)
	}
}

func TestAllocStackFaultsOnePage(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		before := as.Stats().MinorFaults
		top, err := as.AllocStack(th, "w1")
		if err != nil {
			t.Errorf("AllocStack: %v", err)
			return
		}
		if top%PageSize != 0 {
			t.Errorf("stack top %x not page aligned", top)
		}
		if as.Stats().MinorFaults != before+1 {
			t.Errorf("stack alloc faulted %d pages, want 1", as.Stats().MinorFaults-before)
		}
		// A second stack must not overlap the first.
		top2, _ := as.AllocStack(th, "w2")
		if top2+StackSize > top-StackSize && top2 <= top {
			// top2's range is [top2-StackSize, top2); ensure disjoint.
			if top2 > top-StackSize {
				t.Errorf("stacks overlap: %x vs %x", top, top2)
			}
		}
	})
	_ = as
}

func TestTwoSpacesIsolated(t *testing.T) {
	m, c := testSetup(2)
	as1 := New(1, m, c)
	as2 := New(2, m, c)
	err := m.Run(func(th *sim.Thread) {
		a1, _ := as1.Sbrk(th, PageSize)
		a2, _ := as2.Sbrk(th, PageSize)
		if a1 != a2 {
			t.Errorf("identical layouts should give identical brks: %x vs %x", a1, a2)
		}
		as1.Write32(th, a1, 111)
		as2.Write32(th, a2, 222)
		if as1.Read32(th, a1) != 111 || as2.Read32(th, a2) != 222 {
			t.Error("address spaces share backing store")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKernelLockShared(t *testing.T) {
	// With a shared kernel lock, concurrent sbrk from two spaces contends.
	m, c := testSetup(2)
	shared := m.NewMutex("kernel")
	as1 := New(1, m, c, WithKernelLock(shared))
	as2 := New(2, m, c, WithKernelLock(shared))
	err := m.Run(func(main *sim.Thread) {
		w1 := main.Spawn("p1", func(th *sim.Thread) {
			for i := 0; i < 300; i++ {
				if _, err := as1.Sbrk(th, PageSize); err != nil {
					t.Errorf("sbrk: %v", err)
					return
				}
				th.MaybeYield()
			}
		})
		w2 := main.Spawn("p2", func(th *sim.Thread) {
			for i := 0; i < 300; i++ {
				if _, err := as2.Sbrk(th, PageSize); err != nil {
					t.Errorf("sbrk: %v", err)
					return
				}
				th.MaybeYield()
			}
		})
		main.Join(w1)
		main.Join(w2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Acquisitions < 600 {
		t.Fatalf("kernel lock acquisitions = %d, want >= 600", shared.Acquisitions)
	}
	if shared.Contended == 0 {
		t.Fatal("expected contention on the shared kernel lock")
	}
}

func TestFalseSharingCostsMoreAcrossCPUs(t *testing.T) {
	// Two threads on two CPUs write bytes in the same cache line vs in
	// different lines; the same-line pair must take longer. Each write
	// yields, so the engine interleaves per write: at the engine's coarser
	// batching, coherence traffic coalesces, which is why benchmark 3 uses
	// the analytic SteadyWriteCost path instead of raw loops.
	elapsed := func(offsetB uint64) sim.Time {
		// Tiny spawn costs so the two loops overlap in simulated time even
		// with this small iteration count.
		costs := sim.DefaultCosts()
		costs.ThreadSpawn = 100
		costs.SpawnJitter = 50
		m := sim.NewMachine(sim.Config{CPUs: 2, ClockMHz: 100, Seed: 1, Costs: costs})
		c := cache.NewModel(2, cache.DefaultCosts())
		as := New(1, m, c)
		var e1, e2 sim.Time
		err := m.Run(func(main *sim.Thread) {
			base, _ := as.Sbrk(main, PageSize)
			as.Write8(main, base, 0) // prefault
			w1 := main.Spawn("w1", func(th *sim.Thread) {
				for i := 0; i < 20000; i++ {
					as.Write8(th, base, 1)
					th.Yield()
				}
			})
			w2 := main.Spawn("w2", func(th *sim.Thread) {
				for i := 0; i < 20000; i++ {
					as.Write8(th, base+offsetB, 2)
					th.Yield()
				}
			})
			main.Join(w1)
			main.Join(w2)
			e1, e2 = w1.Elapsed(), w2.Elapsed()
		})
		if err != nil {
			t.Fatal(err)
		}
		return e1 + e2
	}
	shared := elapsed(8)     // same 32-byte line
	private := elapsed(1024) // same page, different lines
	if shared <= private*11/10 {
		t.Fatalf("false sharing not visible: shared=%d private=%d", shared, private)
	}
}

func TestVMAListInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		m, c := testSetup(1)
		as := New(1, m, c)
		ok := true
		err := m.Run(func(th *sim.Thread) {
			r := xrand.New(seed, 0)
			var maps []VMA
			for i := 0; i < 40; i++ {
				if r.Intn(3) != 0 || len(maps) == 0 {
					n := uint64(1+r.Intn(8)) * PageSize
					if a, err := as.Mmap(th, n, "m"); err == nil {
						maps = append(maps, VMA{Start: a, End: a + n})
					}
				} else {
					i := r.Intn(len(maps))
					v := maps[i]
					if err := as.Munmap(th, v.Start, v.End-v.Start); err != nil {
						ok = false
					}
					maps = append(maps[:i], maps[i+1:]...)
				}
			}
			// Invariant: sorted, non-overlapping.
			vs := as.VMAs()
			for i := 1; i < len(vs); i++ {
				if vs[i-1].End > vs[i].Start {
					ok = false
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPageContentStability(t *testing.T) {
	// Property: bytes written are read back regardless of access pattern.
	f := func(seed uint64) bool {
		m, c := testSetup(1)
		as := New(1, m, c)
		good := true
		err := m.Run(func(th *sim.Thread) {
			r := xrand.New(seed, 1)
			base, _ := as.Sbrk(th, 16*PageSize)
			ref := make(map[uint64]byte)
			for i := 0; i < 3000; i++ {
				off := uint64(r.Intn(16 * PageSize))
				if r.Intn(2) == 0 {
					b := byte(r.Intn(256))
					as.Write8(th, base+off, b)
					ref[off] = b
				} else if want, okk := ref[off]; okk {
					if as.Read8(th, base+off) != want {
						good = false
					}
				}
			}
		})
		return err == nil && good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestMmapReuseRoundTrip: a parked region is re-handed out without a
// syscall, with its pages still present so nothing re-faults.
func TestMmapReuseRoundTrip(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(1 << 20)
		if _, ok := as.MmapFromReuse(th, 8*PageSize); ok {
			t.Fatal("empty reuse cache produced a region")
		}
		base, err := as.Mmap(th, 8*PageSize, "blob")
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < 8; p++ {
			as.Write8(th, base+p*PageSize, byte(p+1))
		}
		st := as.Stats()
		faults, munmaps, mmaps := st.MinorFaults, st.MunmapCalls, st.MmapCalls

		if ok, perr := as.MunmapReuse(th, base, 8*PageSize); perr != nil || !ok {
			t.Fatalf("MunmapReuse = (%v, %v), want a park under the cap", ok, perr)
		}
		got, ok := as.MmapFromReuse(th, 8*PageSize)
		if !ok || got != base {
			t.Fatalf("MmapFromReuse = (0x%x, %v), want (0x%x, true)", got, ok, base)
		}
		// Re-touch every page: contents survive and nothing faults.
		for p := uint64(0); p < 8; p++ {
			if b := as.Read8(th, base+p*PageSize); b != byte(p+1) {
				t.Fatalf("page %d content = %d, want %d", p, b, p+1)
			}
		}
		st = as.Stats()
		if st.MinorFaults != faults {
			t.Errorf("reused region re-faulted: %d -> %d", faults, st.MinorFaults)
		}
		if st.MunmapCalls != munmaps || st.MmapCalls != mmaps {
			t.Errorf("reuse round trip made syscalls: munmap %d->%d, mmap %d->%d",
				munmaps, st.MunmapCalls, mmaps, st.MmapCalls)
		}
		if st.MmapReuses != 1 || st.MmapReuseParks != 1 || st.MmapReuseBytes != 8*PageSize {
			t.Errorf("reuse stats = %d/%d/%d, want 1/1/%d",
				st.MmapReuses, st.MmapReuseParks, st.MmapReuseBytes, 8*PageSize)
		}
		if st.MmapReuseParked != 0 {
			t.Errorf("parked bytes = %d after take, want 0", st.MmapReuseParked)
		}
	})
}

// TestMmapReuseCapEviction: parking beyond the cap munmaps the oldest
// region for real (FIFO), keeping parked RSS bounded.
func TestMmapReuseCapEviction(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(2 * PageSize)
		var bases []uint64
		for i := 0; i < 3; i++ {
			b, err := as.Mmap(th, PageSize, "r")
			if err != nil {
				t.Fatal(err)
			}
			as.Write8(th, b, byte(i+1))
			bases = append(bases, b)
		}
		munmaps := as.Stats().MunmapCalls
		for _, b := range bases {
			if ok, perr := as.MunmapReuse(th, b, PageSize); perr != nil || !ok {
				t.Fatalf("park refused: (%v, %v)", ok, perr)
			}
		}
		st := as.Stats()
		if st.MmapReuseEvicts != 1 {
			t.Errorf("evictions = %d, want 1 (first region out)", st.MmapReuseEvicts)
		}
		if st.MunmapCalls != munmaps+1 {
			t.Errorf("munmap calls %d -> %d, want one real eviction munmap", munmaps, st.MunmapCalls)
		}
		if st.MmapReuseParked != 2*PageSize {
			t.Errorf("parked bytes = %d, want %d", st.MmapReuseParked, 2*PageSize)
		}
		// The survivors come back LIFO: bases[2] then bases[1]; the evicted
		// bases[0] is gone and a further take misses.
		if got, ok := as.MmapFromReuse(th, PageSize); !ok || got != bases[2] {
			t.Fatalf("first take = (0x%x, %v), want (0x%x, true)", got, ok, bases[2])
		}
		if got, ok := as.MmapFromReuse(th, PageSize); !ok || got != bases[1] {
			t.Fatalf("second take = (0x%x, %v), want (0x%x, true)", got, ok, bases[1])
		}
		if _, ok := as.MmapFromReuse(th, PageSize); ok {
			t.Fatal("third take hit after the only other region was evicted")
		}
		// The evicted region's pages are really gone.
		if as.Peek8(bases[0]) != 0 {
			t.Error("evicted region still has pages")
		}
	})
}

// TestMmapReuseEvictsInParkOrderAcrossLengths: regions of one and two pages
// parked interleaved leave the cache in the order they were parked, whatever
// their length — both under the cap and in the scavenger's age sweep — while
// a take still finds the newest region of its own length.
func TestMmapReuseEvictsInParkOrderAcrossLengths(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(6 * PageSize)
		lengths := []uint64{1, 2, 1, 2, 1, 2} // pages, in park order
		bases := make([]uint64, len(lengths))
		for i, n := range lengths {
			b, err := as.Mmap(th, n*PageSize, "r")
			if err != nil {
				t.Errorf("mmap %d: %v", i, err)
				return
			}
			as.Write8(th, b, byte(i+1))
			bases[i] = b
		}
		present := func(want ...bool) {
			t.Helper()
			for i, b := range bases {
				if got := as.Peek8(b) != 0; got != want[i] {
					t.Errorf("region %d (%d pages) resident = %v, want %v", i, lengths[i], got, want[i])
				}
			}
		}
		marks := make([]sim.Time, len(lengths))
		for i, b := range bases {
			th.Charge(100)
			marks[i] = th.Now()
			if ok, perr := as.MunmapReuse(th, b, lengths[i]*PageSize); perr != nil || !ok {
				t.Errorf("park %d refused: (%v, %v)", i, ok, perr)
				return
			}
		}
		// The first four fill the cap; parking the fifth (one page) evicts
		// region 0, the sixth (two pages) region 1.
		if st := as.Stats(); st.MmapReuseEvicts != 2 || st.MmapReuseParked != 6*PageSize {
			t.Errorf("evictions = %d, parked = %d; want 2 and %d", st.MmapReuseEvicts, st.MmapReuseParked, 6*PageSize)
		}
		present(false, false, true, true, true, true)
		// Sweeping everything parked before region 4 takes regions 2 and 3.
		regions, bytes, err := as.EvictReuseBefore(th, marks[4])
		if err != nil || regions != 2 || bytes != 3*PageSize {
			t.Errorf("EvictReuseBefore = (%d, %d, %v), want (2, %d, nil)", regions, bytes, err, 3*PageSize)
		}
		present(false, false, false, false, true, true)
		if got, ok := as.MmapFromReuse(th, PageSize); !ok || got != bases[4] {
			t.Errorf("one-page take = (0x%x, %v), want (0x%x, true)", got, ok, bases[4])
		}
		if got, ok := as.MmapFromReuse(th, 2*PageSize); !ok || got != bases[5] {
			t.Errorf("two-page take = (0x%x, %v), want (0x%x, true)", got, ok, bases[5])
		}
	})
}

// TestMmapReuseOversizeRefused: a region larger than the whole cap is never
// parked; the caller munmaps as before.
func TestMmapReuseOversizeRefused(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(PageSize)
		b, err := as.Mmap(th, 4*PageSize, "big")
		if err != nil {
			t.Fatal(err)
		}
		if ok, perr := as.MunmapReuse(th, b, 4*PageSize); perr != nil || ok {
			t.Fatalf("MunmapReuse = (%v, %v), want an oversize refusal", ok, perr)
		}
		if err := as.Munmap(th, b, 4*PageSize); err != nil {
			t.Fatal(err)
		}
		if st := as.Stats(); st.MmapReuseParks != 0 || st.MmapReuseParked != 0 {
			t.Errorf("stats moved for a refused park: %+v", st)
		}
	})
}

func TestReleasePagesAndRefault(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		base, err := as.Mmap(th, 8*PageSize, "scratch")
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		for i := uint64(0); i < 8; i++ {
			as.Write8(th, base+i*PageSize, byte(i+1))
		}
		st := as.Stats()
		present := st.PagesPresent
		if present < 8 {
			t.Fatalf("PagesPresent = %d after touching 8 pages", present)
		}
		// Release the middle six pages; the region stays mapped.
		n := as.ReleasePages(th, base+PageSize, 6*PageSize)
		if n != 6*PageSize {
			t.Errorf("released %d bytes, want %d", n, 6*PageSize)
		}
		st = as.Stats()
		if st.PagesPresent != present-6 {
			t.Errorf("PagesPresent = %d, want %d", st.PagesPresent, present-6)
		}
		if st.PagesReleased != 6 || st.MadviseCalls != 1 {
			t.Errorf("PagesReleased=%d MadviseCalls=%d, want 6/1", st.PagesReleased, st.MadviseCalls)
		}
		if st.ResidentBytes != st.PagesPresent*PageSize {
			t.Errorf("ResidentBytes=%d inconsistent with PagesPresent=%d", st.ResidentBytes, st.PagesPresent)
		}
		// Untouched boundary pages keep their contents.
		if as.Read8(th, base) != 1 || as.Read8(th, base+7*PageSize) != 8 {
			t.Error("pages outside the released range lost their contents")
		}
		// A released page refaults, reads as zero, and is counted.
		faults := as.Stats().MinorFaults
		if got := as.Read8(th, base+2*PageSize); got != 0 {
			t.Errorf("released page read %d, want 0", got)
		}
		st = as.Stats()
		if st.Refaults != 1 {
			t.Errorf("Refaults = %d, want 1", st.Refaults)
		}
		if st.MinorFaults != faults+1 {
			t.Errorf("refault not counted as a minor fault: %d -> %d", faults, st.MinorFaults)
		}
		// Second read of the same page: resident again, no new fault.
		as.Read8(th, base+2*PageSize)
		if got := as.Stats().Refaults; got != 1 {
			t.Errorf("Refaults = %d after re-read, want still 1", got)
		}
	})
}

func TestReleasePagesChargesRefaultCost(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c, WithCosts(Costs{Syscall: 100, KernelHold: 100, PageFault: 5000}))
	err := m.Run(func(th *sim.Thread) {
		base, err := as.Mmap(th, 2*PageSize, "scratch")
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		as.Write8(th, base, 1) // first touch: PageFault cost
		as.ReleasePages(th, base, PageSize)
		before := th.Now()
		as.Write8(th, base, 2)
		elapsed := int64(th.Now() - before)
		if elapsed < 5000 {
			t.Errorf("refault charged %d cycles, want >= the 5000-cycle PageFault cost", elapsed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReleasePagesPartialPagesUntouched(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		base, err := as.Mmap(th, 4*PageSize, "scratch")
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		for i := uint64(0); i < 4; i++ {
			as.Write8(th, base+i*PageSize, 7)
		}
		// An unaligned range only releases the whole pages inside it.
		n := as.ReleasePages(th, base+100, 2*PageSize)
		if n != PageSize {
			t.Errorf("released %d bytes from an unaligned 2-page range, want exactly %d", n, PageSize)
		}
		if as.Read8(th, base) != 7 || as.Read8(th, base+2*PageSize) != 7 {
			t.Error("partially covered pages were released")
		}
	})
}

func TestEvictReuseBefore(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(1 << 20)
		park := func() uint64 {
			a, err := as.Mmap(th, 8*PageSize, "blob")
			if err != nil {
				t.Fatalf("mmap: %v", err)
			}
			as.Write8(th, a, 1)
			if ok, perr := as.MunmapReuse(th, a, 8*PageSize); perr != nil || !ok {
				t.Fatalf("MunmapReuse refused: (%v, %v)", ok, perr)
			}
			return a
		}
		park()
		park()
		th.Charge(10)   // step past the second park's timestamp
		cut := th.Now() // both regions parked strictly before this instant
		th.Charge(1000)
		fresh := park()
		regions, bytes, eerr := as.EvictReuseBefore(th, cut)
		if eerr != nil {
			t.Fatalf("EvictReuseBefore: %v", eerr)
		}
		if regions != 2 || bytes != 2*8*PageSize {
			t.Errorf("evicted %d regions / %d bytes, want 2 / %d", regions, bytes, 2*8*PageSize)
		}
		st := as.Stats()
		if st.MmapReuseExpired != 2 {
			t.Errorf("MmapReuseExpired = %d, want 2", st.MmapReuseExpired)
		}
		if st.MmapReuseParked != 8*PageSize {
			t.Errorf("parked bytes = %d, want the fresh region's %d", st.MmapReuseParked, 8*PageSize)
		}
		// The fresh region survived and is still reusable.
		got, ok := as.MmapFromReuse(th, 8*PageSize)
		if !ok || got != fresh {
			t.Errorf("fresh region not served from the cache: ok=%v got=%x want=%x", ok, got, fresh)
		}
	})
}
