package vm

import (
	"errors"
	"fmt"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
)

// moveTo re-dispatches th on cpu. A thread left elsewhere panics, which
// Run reports as the test's error.
func moveTo(th *sim.Thread, cpu int) {
	th.Pin(cpu)
	th.Yield()
	if th.CPU() != cpu {
		panic(fmt.Sprintf("thread on CPU %d after pinning to %d", th.CPU(), cpu))
	}
}

// fills returns the cache model's cold-miss and hit totals over all CPUs.
func fills(c *cache.Model) (cold, hits uint64) {
	for _, s := range c.Stats() {
		cold += s.ColdMisses
		hits += s.Hits
	}
	return cold, hits
}

// TestDropRange checks that a page's coherence lines go with it: once a
// page is munmapped, released or trimmed off the break, the next access to
// one of its lines is a cold miss even from the CPU that owned it dirty —
// while the same access to a page left alone hits.
func TestDropRange(t *testing.T) {
	cases := []struct {
		name string
		// setup maps a fresh page and returns its address.
		setup func(th *sim.Thread, as *AddressSpace) uint64
		// drop gives the page back and re-establishes a mapping at addr.
		drop func(th *sim.Thread, as *AddressSpace, addr uint64) uint64
		cold bool
	}{
		{
			name: "untouched",
			setup: func(th *sim.Thread, as *AddressSpace) uint64 {
				a, _ := as.Mmap(th, PageSize, "kept")
				return a
			},
			drop: func(th *sim.Thread, as *AddressSpace, addr uint64) uint64 { return addr },
		},
		{
			name: "munmap",
			setup: func(th *sim.Thread, as *AddressSpace) uint64 {
				a, _ := as.Mmap(th, PageSize, "unmapped")
				return a
			},
			drop: func(th *sim.Thread, as *AddressSpace, addr uint64) uint64 {
				if err := as.Munmap(th, addr, PageSize); err != nil {
					panic(err)
				}
				a, _ := as.Mmap(th, PageSize, "again")
				return a
			},
			cold: true,
		},
		{
			name: "release",
			setup: func(th *sim.Thread, as *AddressSpace) uint64 {
				a, _ := as.Mmap(th, PageSize, "released")
				return a
			},
			drop: func(th *sim.Thread, as *AddressSpace, addr uint64) uint64 {
				if as.ReleasePages(th, addr, PageSize) != PageSize {
					panic("page not released")
				}
				return addr
			},
			cold: true,
		},
		{
			name: "sbrk-trim",
			setup: func(th *sim.Thread, as *AddressSpace) uint64 {
				a, _ := as.Sbrk(th, PageSize)
				return a
			},
			drop: func(th *sim.Thread, as *AddressSpace, addr uint64) uint64 {
				as.Sbrk(th, -PageSize)
				a, _ := as.Sbrk(th, PageSize)
				return a
			},
			cold: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, c := testSetup(1)
			as := New(1, m, c)
			err := m.Run(func(th *sim.Thread) {
				addr := tc.setup(th, as) + 3*32
				as.Write32(th, addr, 7) // CPU 0 owns the line dirty
				if again := tc.drop(th, as, addr-3*32) + 3*32; again != addr {
					panic(fmt.Sprintf("mapping moved from 0x%x to 0x%x", addr, again))
				}
				cold, hits := fills(c)
				as.Read32(th, addr)
				cold2, hits2 := fills(c)
				if tc.cold && (cold2 != cold+1 || hits2 != hits) {
					t.Errorf("dropped line not cold: %d cold misses, %d hits", cold2-cold, hits2-hits)
				}
				if !tc.cold && (hits2 != hits+1 || cold2 != cold) {
					t.Errorf("kept line not warm: %d cold misses, %d hits", cold2-cold, hits2-hits)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSpaceIsolation: two address spaces sharing one cache model exchange
// no coherence traffic at the same virtual address — each keeps its own
// lines, the asymmetry benchmark 1's two-process configuration measures.
func TestSpaceIsolation(t *testing.T) {
	m, c := testSetup(2)
	as1 := New(1, m, c)
	as2 := New(2, m, c)
	err := m.Run(func(th *sim.Thread) {
		a1, _ := as1.Sbrk(th, PageSize)
		a2, _ := as2.Sbrk(th, PageSize)
		if a1 != a2 {
			panic(fmt.Sprintf("identical layouts gave different breaks: 0x%x vs 0x%x", a1, a2))
		}
		moveTo(th, 0)
		as1.Write32(th, a1, 1)
		moveTo(th, 1)
		as2.Write32(th, a2, 2)
		moveTo(th, 0)
		cold, hits := fills(c)
		as1.Write32(th, a1, 3)
		moveTo(th, 1)
		as2.Write32(th, a2, 4)
		if cold2, hits2 := fills(c); cold2 != cold || hits2 != hits+2 {
			t.Errorf("each space's owner should write-hit: %d cold misses, %d hits", cold2-cold, hits2-hits)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.OwnerFlips != 0 {
		t.Fatalf("OwnerFlips = %d across two spaces, want 0", c.OwnerFlips)
	}
	for cpu, s := range c.Stats() {
		if s.RemoteMisses != 0 || s.Invalidated != 0 {
			t.Fatalf("cpu %d saw coherence traffic across spaces: %+v", cpu, s)
		}
	}
}

// TestSameLine: addresses on one line share one directory entry, and the
// neighbouring line has its own. A dirty line written from CPU 0 is a
// cache-to-cache fill for CPU 1 anywhere on that line, including a byte of
// it never written, and a cold miss one byte past its end.
func TestSameLine(t *testing.T) {
	const size = cache.LineSize
	t.Run(fmt.Sprintf("line%d", size), func(t *testing.T) {
		m := sim.NewMachine(sim.Config{CPUs: 2, ClockMHz: 100, Seed: 1})
		as := New(1, m, cache.NewModel(2, cache.DefaultCosts()))
		err := m.Run(func(th *sim.Thread) {
			base, _ := as.Sbrk(th, PageSize)
			moveTo(th, 0)
			as.Write8(th, base+size, 1)
			as.Write8(th, base+size-1, 2)
			moveTo(th, 1)
			before := as.Stats()
			// Same line as base+size: supplied dirty by CPU 0.
			if got := as.Read8(th, base+2*size-1); got != 0 {
				t.Errorf("unwritten byte reads %d", got)
			}
			after := as.Stats()
			if after.FillC2C != before.FillC2C+1 {
				t.Errorf("+0x%x and +0x%x should share a line: FillC2C %d -> %d", size, 2*size-1, before.FillC2C, after.FillC2C)
			}
			as.Read8(th, base+2*size) // the next line: never touched
			if s := as.Stats(); s.FillRemote != after.FillRemote+1 || s.FillC2C != after.FillC2C {
				t.Errorf("+0x%x must start a fresh line: FillRemote %d -> %d, FillC2C %d -> %d",
					2*size, after.FillRemote, s.FillRemote, after.FillC2C, s.FillC2C)
			}
			// Line 0, dirty on CPU 0: not base+size's line.
			if got := as.Read8(th, base+size-1); got != 2 {
				t.Errorf("+0x%x reads %d, want 2", size-1, got)
			}
			if s := as.Stats(); s.FillC2C != after.FillC2C+1 {
				t.Errorf("+0x%x must not share +0x%x's line: FillC2C %d -> %d", size-1, size, after.FillC2C, s.FillC2C)
			}
			if got := as.Read8(th, base+size); got != 1 {
				t.Errorf("+0x%x reads %d, want 1", size, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecycledGranuleStartsUntouched: a granule an eviction returns to the
// pool comes back from the next fault as if never touched. CPU 0 writes a
// word on a page, the page is unmapped or released, and a fault on a fresh
// mapping draws the same granule. CPU 0's first read there returns 0 and is
// billed a cold miss served from memory, not a hit on the line it held
// dirty.
func TestRecycledGranuleStartsUntouched(t *testing.T) {
	evictions := map[string]func(th *sim.Thread, as *AddressSpace, addr uint64){
		"munmap": func(th *sim.Thread, as *AddressSpace, addr uint64) {
			if err := as.Munmap(th, addr, PageSize); err != nil {
				panic(err)
			}
		},
		"release": func(th *sim.Thread, as *AddressSpace, addr uint64) {
			if as.ReleasePages(th, addr, PageSize) != PageSize {
				panic("page not released")
			}
		},
	}
	for _, name := range []string{"munmap", "release"} {
		t.Run(name, func(t *testing.T) {
			m, c := testSetup(2)
			as := New(1, m, c)
			err := m.Run(func(th *sim.Thread) {
				moveTo(th, 0)
				old, _ := as.Mmap(th, PageSize, "old")
				as.Write32(th, old+3*32, 0xdeadbeef) // CPU 0 owns the line dirty
				gran := as.lookup(old / PageSize).grans[0]
				evictions[name](th, as, old)
				fresh, _ := as.Mmap(th, PageSize, "fresh")
				cpu, vs := c.Stats()[0], as.Stats()
				if got := as.Read32(th, fresh+5*32); got != 0 {
					t.Errorf("recycled granule reads %#x, want 0", got)
				}
				if p := as.lookup(fresh / PageSize); p == nil || p.grans[0] != gran {
					t.Errorf("the fault did not draw the evicted page's granule %d", gran)
					return
				}
				cpu2, vs2 := c.Stats()[0], as.Stats()
				if cpu2.ColdMisses != cpu.ColdMisses+1 || cpu2.Hits != cpu.Hits {
					t.Errorf("recycled line billed %d cold misses and %d hits, want 1 and 0",
						cpu2.ColdMisses-cpu.ColdMisses, cpu2.Hits-cpu.Hits)
				}
				if vs2.FillRemote != vs.FillRemote+1 || vs2.FillLocal != vs.FillLocal {
					t.Errorf("recycled line billed %d memory fills and %d local fills, want 1 and 0",
						vs2.FillRemote-vs.FillRemote, vs2.FillLocal-vs.FillLocal)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEvictedGranuleLeavesCache: an eviction retires the granule cache's
// entry for every granule of the page it drops, not only for the last one
// resolved. CPU 0 writes a word on page P and then one on page Q, so P's
// granule is cached but not last. P is unmapped, released or trimmed off
// the break, and a write on Q draws P's old granule from the pool, so CPU 0
// holds that granule's line dirty again under another address. With P's
// address mapped again, a read of P's word returns 0 and is billed one cold
// miss and one memory fill, not a hit on the recycled granule.
func TestEvictedGranuleLeavesCache(t *testing.T) {
	mmapPage := func(th *sim.Thread, as *AddressSpace) uint64 {
		a, _ := as.Mmap(th, PageSize, "p")
		return a
	}
	cases := []struct {
		name string
		// mapP maps page P and returns its address.
		mapP func(th *sim.Thread, as *AddressSpace) uint64
		// evict drops P and leaves its address mapped again.
		evict func(th *sim.Thread, as *AddressSpace, p uint64)
	}{
		{"munmap", mmapPage, func(th *sim.Thread, as *AddressSpace, p uint64) {
			if err := as.Munmap(th, p, PageSize); err != nil {
				panic(err)
			}
			if again, _ := as.Mmap(th, PageSize, "again"); again != p {
				panic(fmt.Sprintf("remapped at 0x%x, want 0x%x", again, p))
			}
		}},
		{"release", mmapPage, func(th *sim.Thread, as *AddressSpace, p uint64) {
			if as.ReleasePages(th, p, PageSize) != PageSize {
				panic("page not released")
			}
		}},
		{"sbrk", func(th *sim.Thread, as *AddressSpace) uint64 {
			a, _ := as.Sbrk(th, PageSize)
			return a
		}, func(th *sim.Thread, as *AddressSpace, p uint64) {
			as.Sbrk(th, -PageSize)
			if again, _ := as.Sbrk(th, PageSize); again != p {
				panic(fmt.Sprintf("break regrown at 0x%x, want 0x%x", again, p))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, c := testSetup(1)
			as := New(1, m, c)
			err := m.Run(func(th *sim.Thread) {
				p := tc.mapP(th, as)
				q, _ := as.Mmap(th, PageSize, "q")
				as.Write32(th, p+3*32, 0xdeadbeef)
				as.Write32(th, q, 1)
				gran := as.lookup(p / PageSize).grans[0]
				tc.evict(th, as, p)
				as.Write32(th, q+7*32, 0xfeedface)
				if qp := as.lookup(q / PageSize); len(qp.grans) != 2 || qp.grans[1] != gran {
					t.Errorf("the write on Q did not draw P's granule %d", gran)
					return
				}
				cpu, vs := c.Stats()[0], as.Stats()
				if got := as.Read32(th, p+3*32); got != 0 {
					t.Errorf("P's word reads %#x after the eviction, want 0", got)
				}
				cpu2, vs2 := c.Stats()[0], as.Stats()
				if cpu2.ColdMisses != cpu.ColdMisses+1 || cpu2.Hits != cpu.Hits {
					t.Errorf("P's line billed %d cold misses and %d hits, want 1 and 0",
						cpu2.ColdMisses-cpu.ColdMisses, cpu2.Hits-cpu.Hits)
				}
				if vs2.FillRemote != vs.FillRemote+1 || vs2.FillLocal != vs.FillLocal {
					t.Errorf("P's line billed %d memory fills and %d local fills, want 1 and 0",
						vs2.FillRemote-vs.FillRemote, vs2.FillLocal-vs.FillLocal)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGranuleCacheOutOfRange: the granule cache answers only for addresses
// in the 32-bit space. With base+64's granule cached, each accessor at
// base+64 plus 1<<32 or plus 1<<37 — granule numbers that differ from
// base+64's only at bit 27 or bit 32 — panics with Fault, as it does with
// nothing cached.
func TestGranuleCacheOutOfRange(t *testing.T) {
	accessors := map[string]func(th *sim.Thread, as *AddressSpace, addr uint64){
		"read32":  func(th *sim.Thread, as *AddressSpace, addr uint64) { as.Read32(th, addr) },
		"write32": func(th *sim.Thread, as *AddressSpace, addr uint64) { as.Write32(th, addr, 1) },
		"read8":   func(th *sim.Thread, as *AddressSpace, addr uint64) { as.Read8(th, addr) },
		"write8":  func(th *sim.Thread, as *AddressSpace, addr uint64) { as.Write8(th, addr, 1) },
	}
	for _, op := range []string{"read32", "write32", "read8", "write8"} {
		for _, shift := range []uint{32, 37} {
			t.Run(fmt.Sprintf("%s/+1<<%d", op, shift), func(t *testing.T) {
				m, c := testSetup(1)
				as := New(1, m, c)
				var addr uint64
				err := m.Run(func(th *sim.Thread) {
					base, _ := as.Sbrk(th, PageSize)
					as.Write32(th, base+64, 7)
					addr = base + 64 + 1<<shift
					accessors[op](th, as, addr)
				})
				var f Fault
				if !errors.As(err, &f) {
					t.Fatalf("err = %v, want a wrapped vm.Fault", err)
				}
				if f.Addr != addr || f.Op != op {
					t.Errorf("fault = %+v, want %s at 0x%x", f, op, addr)
				}
			})
		}
	}
}

// TestGranuleCacheGenerationWrap: the eviction that wraps the granule
// cache's 32-bit generation still retires every entry, also those filled
// at the first generation, which the wrapped counter would reach again.
// Two pages' writes fill all 256 entries at the first generation; the
// counter is then set to the last generation before the wrap, and one
// munmap wraps it.
func TestGranuleCacheGenerationWrap(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		kept, _ := as.Mmap(th, 2*PageSize, "kept")
		old, _ := as.Mmap(th, PageSize, "old")
		for a := kept; a < kept+2*PageSize; a += granuleSize {
			as.Write32(th, a, uint32(a))
		}
		as.gen = ^uint64(0) &^ (genStep - 1)
		as.Write32(th, old, 1)
		if err := as.Munmap(th, old, PageSize); err != nil {
			panic(err)
		}
		if as.gen == 0 {
			t.Errorf("generation wrapped to 0, where an empty entry's key matches address 0")
		}
		for i, e := range as.grans {
			if e.key&^(genStep-1) == as.gen {
				t.Errorf("entry %d (key %#x) survived the wrapping eviction", i, e.key)
			}
		}
		for a := kept; a < kept+2*PageSize; a += granuleSize {
			if got := as.Read32(th, a); got != uint32(a) {
				t.Fatalf("0x%x reads %#x after the wrap, want %#x", a, got, uint32(a))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmCycleAllocatesNothing: once one cycle has filled the pool, a
// cycle of mmap 160 KB, a write to every page, ReleasePages on half of
// them, their refaults and the munmap allocates no host memory.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	const region = 160 << 10
	m, c := testSetup(1)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		cycle := func() {
			addr, err := as.Mmap(th, region, "cycle")
			if err != nil {
				panic(err)
			}
			for a := addr; a < addr+region; a += PageSize {
				as.Write32(th, a, 1)
			}
			if as.ReleasePages(th, addr, region/2) != region/2 {
				panic("half the region not released")
			}
			refaults := as.Stats().Refaults
			for a := addr; a < addr+region/2; a += PageSize {
				as.Write32(th, a, 2)
			}
			if got := as.Stats().Refaults - refaults; got != region/2/PageSize {
				panic(fmt.Sprintf("%d refaults, want %d", got, region/2/PageSize))
			}
			if err := as.Munmap(th, addr, region); err != nil {
				panic(err)
			}
		}
		cycle()
		if n := testing.AllocsPerRun(10, cycle); n != 0 {
			t.Errorf("a warm cycle allocates %v times, want 0", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
