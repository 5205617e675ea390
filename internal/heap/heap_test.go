package heap

import (
	"errors"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

// withArena runs body against a fresh machine, address space and main arena.
func withArena(t *testing.T, params Params, body func(th *sim.Thread, a *Arena)) {
	t.Helper()
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		a, err := NewMain(th, as, &params)
		if err != nil {
			t.Errorf("NewMain: %v", err)
			return
		}
		body(th, a)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func mustMalloc(t *testing.T, th *sim.Thread, a *Arena, n uint32) uint64 {
	t.Helper()
	p, err := a.Malloc(th, n)
	if err != nil {
		t.Fatalf("Malloc(%d): %v", n, err)
	}
	return p
}

func mustFree(t *testing.T, th *sim.Thread, a *Arena, p uint64) {
	t.Helper()
	if err := a.Free(th, p); err != nil {
		t.Fatalf("Free(0x%x): %v", p, err)
	}
}

func mustCheck(t *testing.T, a *Arena) {
	t.Helper()
	if err := a.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestRequest2Size(t *testing.T) {
	p := DefaultParams()
	cases := []struct{ req, want uint32 }{
		{0, 16}, {1, 16}, {12, 16}, {13, 24}, {20, 24},
		{40, 48}, // the paper's benchmark-2 request size: 48-byte chunks
		{512, 520},
		{4100, 4104}, // figure 2's request size
		{8192, 8200}, // figures 1/3/4's request size
	}
	for _, c := range cases {
		if got := p.Request2Size(c.req); got != c.want {
			t.Errorf("Request2Size(%d) = %d, want %d", c.req, got, c.want)
		}
	}
}

func TestRequest2SizeAligned(t *testing.T) {
	p := DefaultParams()
	p.Align = 32
	for _, req := range []uint32{1, 20, 40, 100} {
		got := p.Request2Size(req)
		if got%32 != 0 {
			t.Errorf("aligned Request2Size(%d) = %d, not a line multiple", req, got)
		}
		if got < req+SizeSz {
			t.Errorf("aligned Request2Size(%d) = %d too small", req, got)
		}
	}
}

func TestBinIndexMonotonic(t *testing.T) {
	last := 0
	for sz := uint32(16); sz < 1<<20; sz += 8 {
		idx := BinIndex(sz)
		if idx < last {
			t.Fatalf("BinIndex(%d) = %d < previous %d", sz, idx, last)
		}
		if idx >= NBins {
			t.Fatalf("BinIndex(%d) = %d out of range", sz, idx)
		}
		last = idx
	}
}

func TestBinRangeCoversBinIndex(t *testing.T) {
	for sz := uint32(16); sz < 1<<21; sz += 8 {
		idx := BinIndex(sz)
		lo, hi := binRange(idx)
		if sz < lo || sz >= hi {
			t.Fatalf("size %d -> bin %d but range [%d,%d)", sz, idx, lo, hi)
		}
	}
}

func TestMallocFreeRoundtrip(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p := mustMalloc(t, th, a, 100)
		if p%8 != 0 {
			t.Errorf("user pointer %x not 8-aligned", p)
		}
		as := a.AddressSpace()
		as.Write32(th, p, 0xfeedface)
		as.Write32(th, p+96, 7)
		if as.Read32(th, p) != 0xfeedface || as.Read32(th, p+96) != 7 {
			t.Error("data readback failed")
		}
		mustFree(t, th, a, p)
		mustCheck(t, a)
	})
}

func TestFreeThenMallocReusesChunk(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p1 := mustMalloc(t, th, a, 512)
		barrier := mustMalloc(t, th, a, 64) // keep p1 off the top chunk
		mustFree(t, th, a, p1)
		p2 := mustMalloc(t, th, a, 512)
		if p2 != p1 {
			t.Errorf("free+malloc of same size moved: %x -> %x", p1, p2)
		}
		mustFree(t, th, a, barrier)
		mustFree(t, th, a, p2)
		mustCheck(t, a)
	})
}

func TestCoalesceBackward(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p1 := mustMalloc(t, th, a, 64)
		p2 := mustMalloc(t, th, a, 64)
		barrier := mustMalloc(t, th, a, 64)
		mustFree(t, th, a, p1)
		mustFree(t, th, a, p2) // must merge with p1's chunk
		mustCheck(t, a)
		st := a.Stats()
		if st.Coalesces == 0 {
			t.Error("no coalesce recorded")
		}
		// A request covering both merged chunks must reuse the merged one.
		p3 := mustMalloc(t, th, a, 128)
		if p3 != p1 {
			t.Errorf("merged chunk not reused: got %x, want %x", p3, p1)
		}
		mustFree(t, th, a, p3)
		mustFree(t, th, a, barrier)
		mustCheck(t, a)
	})
}

func TestCoalesceForward(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p1 := mustMalloc(t, th, a, 64)
		p2 := mustMalloc(t, th, a, 64)
		barrier := mustMalloc(t, th, a, 64)
		mustFree(t, th, a, p2)
		mustFree(t, th, a, p1) // must merge forward into p2's chunk
		mustCheck(t, a)
		p3 := mustMalloc(t, th, a, 128)
		if p3 != p1 {
			t.Errorf("merged chunk not reused: got %x, want %x", p3, p1)
		}
		mustFree(t, th, a, barrier)
		mustFree(t, th, a, p3)
		mustCheck(t, a)
	})
}

func TestSplitLeavesRemainderUsable(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		big := mustMalloc(t, th, a, 1024)
		barrier := mustMalloc(t, th, a, 64)
		mustFree(t, th, a, big)
		small := mustMalloc(t, th, a, 128) // splits the 1032-byte chunk
		if small != big {
			t.Errorf("split should reuse the front: got %x, want %x", small, big)
		}
		st := a.Stats()
		if st.Splits == 0 {
			t.Error("no split recorded")
		}
		// Remainder must be allocatable.
		rem := mustMalloc(t, th, a, 512)
		if rem < small || rem > small+1100 {
			t.Errorf("remainder allocated far away: %x vs %x", rem, small)
		}
		mustFree(t, th, a, small)
		mustFree(t, th, a, rem)
		mustFree(t, th, a, barrier)
		mustCheck(t, a)
	})
}

func TestTopGrowsAndTrims(t *testing.T) {
	p := DefaultParams()
	p.TrimThreshold = 64 * 1024
	withArena(t, p, func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		brk0 := as.Brk()
		// Allocate ~512KB then free it all: heap must extend, then trim.
		var ps []uint64
		for i := 0; i < 64; i++ {
			ps = append(ps, mustMalloc(t, th, a, 8192))
		}
		if as.Brk() <= brk0 {
			t.Error("heap did not grow via sbrk")
		}
		grown := as.Brk()
		for _, q := range ps {
			mustFree(t, th, a, q)
		}
		if as.Brk() >= grown {
			t.Error("trim did not shrink the brk")
		}
		if a.Stats().Trims == 0 {
			t.Error("no trim recorded")
		}
		mustCheck(t, a)
	})
}

func TestTrimDisabled(t *testing.T) {
	p := DefaultParams()
	p.TrimThreshold = 64 * 1024
	p.Trim = false
	withArena(t, p, func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		var ps []uint64
		for i := 0; i < 64; i++ {
			ps = append(ps, mustMalloc(t, th, a, 8192))
		}
		grown := as.Brk()
		for _, q := range ps {
			mustFree(t, th, a, q)
		}
		if as.Brk() != grown {
			t.Error("brk moved despite Trim=false")
		}
		if a.Stats().Trims != 0 {
			t.Error("trim recorded despite Trim=false")
		}
		mustCheck(t, a)
	})
}

func TestMmapChunk(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		as := a.AddressSpace()
		p, err := a.MmapChunk(th, 256*1024)
		if err != nil {
			t.Fatalf("MmapChunk: %v", err)
		}
		if p < vm.MmapBase {
			t.Errorf("mmapped chunk at %x below mmap area", p)
		}
		if !a.IsMmappedMem(th, p) {
			t.Error("M flag not set")
		}
		us := a.UsableSize(th, p)
		if us < 256*1024 {
			t.Errorf("usable size %d < request", us)
		}
		as.Write8(th, p, 1)
		as.Write8(th, p+uint64(us)-1, 1)
		mm := as.Stats().MunmapCalls
		if err := a.FreeMmapChunk(th, p); err != nil {
			t.Fatalf("FreeMmapChunk: %v", err)
		}
		if as.Stats().MunmapCalls != mm+1 {
			t.Error("munmap not issued")
		}
	})
}

func TestSubArenaAllocatesAndFills(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	params := DefaultParams()
	err := m.Run(func(th *sim.Thread) {
		a, err := NewSub(th, as, &params, 1)
		if err != nil {
			t.Errorf("NewSub: %v", err)
			return
		}
		a.mapCap = 256 * 1024
		if a.IsMain {
			t.Error("sub arena marked main")
		}
		var ps []uint64
		for {
			p, err := a.Malloc(th, 4096)
			if err != nil {
				if !errors.Is(err, ErrArenaFull) {
					t.Errorf("expected ErrArenaFull, got %v", err)
				}
				break
			}
			ps = append(ps, p)
			if len(ps) > 1000 {
				t.Error("sub arena never filled")
				return
			}
		}
		// Should have fit roughly mapCap / chunk size allocations.
		if len(ps) < 40 {
			t.Errorf("sub arena filled after only %d allocations", len(ps))
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		// Free everything; arena must be reusable.
		for _, p := range ps {
			if err := a.Free(th, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check after drain: %v", err)
		}
		if _, err := a.Malloc(th, 4096); err != nil {
			t.Errorf("malloc after drain: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSbrkBlockedFallsBackToMmap(t *testing.T) {
	// Exhaust the brk range so sbrk collides with the library mapping,
	// then verify the arena keeps serving from a new mmapped segment.
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	params := DefaultParams()
	err := m.Run(func(th *sim.Thread) {
		a, err := NewMain(th, as, &params)
		if err != nil {
			t.Errorf("NewMain: %v", err)
			return
		}
		// Fill almost the whole brk range directly.
		room := int64(vm.LibBase-as.Brk()) - 16*vm.PageSize
		if _, err := as.Sbrk(th, room); err != nil {
			t.Errorf("direct sbrk: %v", err)
			return
		}
		// Arena still believes its segment ends at the old brk; fix the
		// test by allocating until the segment is exhausted instead.
		mmaps := as.Stats().MmapCalls
		for i := 0; i < 40; i++ {
			if _, err := a.Malloc(th, 60*1024); err != nil {
				t.Errorf("Malloc after fallback: %v", err)
				return
			}
		}
		if as.Stats().MmapCalls == mmaps {
			t.Error("no mmap fallback happened")
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSbrkBlockedNoRetryFails(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	params := DefaultParams()
	params.RetrySbrkWithMmap = false
	err := m.Run(func(th *sim.Thread) {
		a, err := NewMain(th, as, &params)
		if err != nil {
			t.Errorf("NewMain: %v", err)
			return
		}
		room := int64(vm.LibBase-as.Brk()) - 16*vm.PageSize
		if _, err := as.Sbrk(th, room); err != nil {
			t.Errorf("direct sbrk: %v", err)
			return
		}
		sawFail := false
		for i := 0; i < 40; i++ {
			if _, err := a.Malloc(th, 60*1024); err != nil {
				if !errors.Is(err, ErrNoMemory) {
					t.Errorf("want ErrNoMemory, got %v", err)
				}
				sawFail = true
				break
			}
		}
		if !sawFail {
			t.Error("allocation kept succeeding without sbrk room or mmap retry")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlignedArenaReturnsAlignedPointers(t *testing.T) {
	p := DefaultParams()
	p.Align = 32
	withArena(t, p, func(th *sim.Thread, a *Arena) {
		var ps []uint64
		for _, req := range []uint32{3, 17, 40, 52, 100, 1000} {
			q := mustMalloc(t, th, a, req)
			if q%32 != 0 {
				t.Errorf("request %d: pointer %x not 32-byte aligned", req, q)
			}
			ps = append(ps, q)
		}
		for _, q := range ps {
			mustFree(t, th, a, q)
		}
		mustCheck(t, a)
	})
}

func TestUsableSize(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p := mustMalloc(t, th, a, 40)
		us := a.UsableSize(th, p)
		if us < 40 || us > 48 {
			t.Errorf("UsableSize = %d, want 40..48", us)
		}
		mustFree(t, th, a, p)
	})
}

func TestFreeBogusPointerFails(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		if err := a.Free(th, 0x12345678); !errors.Is(err, ErrBadFree) {
			t.Errorf("free of wild pointer: %v", err)
		}
	})
}

func TestWalkTilesSegments(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p1 := mustMalloc(t, th, a, 100)
		p2 := mustMalloc(t, th, a, 200)
		mustFree(t, th, a, p1)
		var last uint64
		var count int
		err := a.Walk(func(ci ChunkInfo) bool {
			if last != 0 && ci.Addr != last {
				t.Errorf("gap in walk: chunk at %x, expected %x", ci.Addr, last)
			}
			last = ci.Addr + uint64(ci.Size)
			count++
			return true
		})
		if err != nil {
			t.Fatalf("Walk: %v", err)
		}
		if count < 3 { // p1 free, p2, top
			t.Errorf("walked only %d chunks", count)
		}
		mustFree(t, th, a, p2)
	})
}

// TestTortureSingleThread drives a random malloc/free mix with shadow
// verification: every allocation is stamped with a pattern that must read
// back intact at free time, and the structural checker runs periodically.
func TestTortureSingleThread(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
			as := a.AddressSpace()
			r := xrand.New(seed, 42)
			type obj struct {
				p     uint64
				n     uint32
				stamp byte
			}
			var live []obj
			for i := 0; i < 4000; i++ {
				if len(live) == 0 || (len(live) < 300 && r.Intn(2) == 0) {
					n := uint32(1 + r.Intn(2000))
					if r.Intn(20) == 0 {
						n = uint32(1 + r.Intn(200000)) // occasional huge
					}
					var p uint64
					var err error
					if n >= MmapThreshold {
						p, err = a.MmapChunk(th, n)
					} else {
						p, err = a.Malloc(th, n)
					}
					if err != nil {
						t.Fatalf("seed %d op %d: Malloc(%d): %v", seed, i, n, err)
					}
					stamp := byte(r.Intn(256))
					as.Write8(th, p, stamp)
					as.Write8(th, p+uint64(n)-1, stamp)
					live = append(live, obj{p, n, stamp})
				} else {
					k := r.Intn(len(live))
					o := live[k]
					if as.Read8(th, o.p) != o.stamp || as.Read8(th, o.p+uint64(o.n)-1) != o.stamp {
						t.Fatalf("seed %d op %d: stamp corrupted on %x (size %d)", seed, i, o.p, o.n)
					}
					var err error
					if a.IsMmappedMem(th, o.p) {
						err = a.FreeMmapChunk(th, o.p)
					} else {
						err = a.Free(th, o.p)
					}
					if err != nil {
						t.Fatalf("seed %d op %d: Free: %v", seed, i, err)
					}
					live = append(live[:k], live[k+1:]...)
				}
				if i%500 == 0 {
					if err := a.Check(); err != nil {
						t.Fatalf("seed %d op %d: %v", seed, i, err)
					}
				}
			}
			for _, o := range live {
				if a.IsMmappedMem(th, o.p) {
					a.FreeMmapChunk(th, o.p)
				} else {
					mustFree(t, th, a, o.p)
				}
			}
			mustCheck(t, a)
			// After freeing everything, the heap should have coalesced into
			// a small number of free chunks.
			_, free := a.ChunkCount()
			if free > 8 {
				t.Errorf("seed %d: %d free chunks remain after full drain", seed, free)
			}
		})
	}
}

// TestNoAdjacentFreeChunksProperty asserts the coalescing invariant under
// random workloads of odd sizes.
func TestNoAdjacentFreeChunksProperty(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		r := xrand.New(99, 0)
		var live []uint64
		for i := 0; i < 3000; i++ {
			if len(live) == 0 || r.Intn(3) > 0 {
				p := mustMalloc(t, th, a, uint32(1+r.Intn(700)))
				live = append(live, p)
			} else {
				k := r.Intn(len(live))
				mustFree(t, th, a, live[k])
				live = append(live[:k], live[k+1:]...)
			}
		}
		mustCheck(t, a) // Check enforces the no-adjacent-free invariant
	})
}

func TestStatsAccounting(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		p1 := mustMalloc(t, th, a, 100)
		p2 := mustMalloc(t, th, a, 100)
		st := a.Stats()
		if st.Mallocs != 2 {
			t.Errorf("Mallocs = %d", st.Mallocs)
		}
		if st.BytesInUse == 0 || st.PeakInUse < st.BytesInUse {
			t.Errorf("byte accounting wrong: %+v", st)
		}
		mustFree(t, th, a, p1)
		mustFree(t, th, a, p2)
		st = a.Stats()
		if st.Frees != 2 {
			t.Errorf("Frees = %d", st.Frees)
		}
		if st.BytesInUse != 0 {
			t.Errorf("BytesInUse = %d after full drain", st.BytesInUse)
		}
	})
}

// TestTrimTopReleasesSubArenaTail: the scavenger's trim must shed the free
// tail of a sub-arena's top chunk — memory the sbrk-based free-time trim can
// never touch — while the heap stays structurally intact and usable.
func TestTrimTopReleasesSubArenaTail(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	params := DefaultParams()
	err := m.Run(func(th *sim.Thread) {
		a, err := NewSub(th, as, &params, 1)
		if err != nil {
			t.Errorf("NewSub: %v", err)
			return
		}
		// Dirty a stretch of the heap, then free it back into the top chunk.
		// 40 x 2.5KB stays inside the sub-arena's initial segment, so every
		// free coalesces back into the one top chunk.
		var ps []uint64
		for i := 0; i < 40; i++ {
			p, err := a.Malloc(th, 2500)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			as.Write8(th, p, 0xCC)
			as.Write8(th, p+2499, 0xCC)
			ps = append(ps, p)
		}
		for i := len(ps) - 1; i >= 0; i-- {
			if err := a.Free(th, ps[i]); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		resident := as.Stats().PagesPresent
		n := a.TrimTop(th, 8*1024)
		if n == 0 {
			t.Fatal("TrimTop released nothing over a ~100KB free top")
		}
		st := as.Stats()
		if st.PagesPresent >= resident {
			t.Errorf("residency did not drop: %d -> %d pages", resident, st.PagesPresent)
		}
		hs := a.Stats()
		if hs.TopReleases != 1 || hs.BytesReleased != n {
			t.Errorf("trim stats = %d releases / %d bytes, want 1 / %d", hs.TopReleases, hs.BytesReleased, n)
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check after trim: %v", err)
		}
		// A second trim with nothing new to shed is a no-op.
		if again := a.TrimTop(th, 8*1024); again != 0 {
			t.Errorf("second TrimTop released %d bytes, want 0", again)
		}
		// The arena still serves allocations from the released range.
		q, err := a.Malloc(th, 64*1024)
		if err != nil {
			t.Errorf("Malloc after trim: %v", err)
			return
		}
		// Touch past the kept pad so the write lands on released pages.
		as.Write8(th, q+32*1024, 0xAB)
		if as.Read8(th, q+32*1024) != 0xAB {
			t.Error("allocation from released pages unusable")
		}
		if as.Stats().Refaults == 0 {
			t.Error("touching the released range counted no refaults")
		}
		if err := a.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTrimTopRespectsPad: everything inside the pad stays resident.
func TestTrimTopRespectsPad(t *testing.T) {
	withArena(t, DefaultParams(), func(th *sim.Thread, a *Arena) {
		if n := a.TrimTop(th, ^uint32(0)>>1); n != 0 {
			t.Errorf("TrimTop with a huge pad released %d bytes, want 0", n)
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
}
