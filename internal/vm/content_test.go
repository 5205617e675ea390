package vm

import (
	"errors"
	"fmt"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// fillTotal counts the cache accesses the space has billed.
func fillTotal(as *AddressSpace) uint64 {
	s := as.Stats()
	return s.FillLocal + s.FillRemote + s.FillC2C
}

// TestContentMatchesFlatReference drives random charged and uncharged
// loads and stores at arbitrary offsets against a flat byte array. A
// quarter of the offsets sit at 29-31 past a granule boundary, so 32-bit
// accesses straddle two granules; each charged access,
// straddling or not, bills exactly one cache access. ReleasePages with
// refaults and Munmap with a fresh Mmap of the hole are interleaved:
// released, unmapped and never-written bytes must read zero.
func TestContentMatchesFlatReference(t *testing.T) {
	const pages = 6
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("line%d/seed%d", cache.LineSize, seed), func(t *testing.T) {
			m := sim.NewMachine(sim.Config{CPUs: 2, ClockMHz: 100, Seed: seed})
			as := New(1, m, cache.NewModel(2, cache.DefaultCosts()))
			r := xrand.New(seed, cache.LineShift)
			err := m.Run(func(th *sim.Thread) {
				base, err := as.Mmap(th, pages*PageSize, "content")
				if err != nil {
					panic(err)
				}
				// ref is the flat reference: the region's bytes by offset.
				ref := make([]byte, pages*PageSize)
				forget := func(lo, hi uint64) { clear(ref[lo-base : hi-base]) }
				word := func(off uint64) uint32 {
					return uint32(ref[off]) | uint32(ref[off+1])<<8 | uint32(ref[off+2])<<16 | uint32(ref[off+3])<<24
				}
				for i := 0; i < 20000; i++ {
					off := uint64(r.Intn(pages * PageSize))
					if r.Intn(4) == 0 {
						off = off&^(granuleSize-1) | uint64(granuleSize-3+r.Intn(3))
					}
					addr := base + off
					fitsWord := addr%PageSize <= PageSize-4
					before := fillTotal(as)
					charged := true
					switch op := r.Intn(12); {
					case op < 2:
						v := byte(r.Uint64())
						as.Write8(th, addr, v)
						ref[off] = v
					case op < 4 && fitsWord:
						v := uint32(r.Uint64())
						as.Write32(th, addr, v)
						for k := uint64(0); k < 4; k++ {
							ref[off+k] = byte(v >> (8 * k))
						}
					case op < 5:
						if got := as.Read8(th, addr); got != ref[off] {
							t.Errorf("op %d: Read8(+0x%x) = %#x, want %#x", i, off, got, ref[off])
						}
					case op < 7 && fitsWord:
						if got := as.Read32(th, addr); got != word(off) {
							t.Errorf("op %d: Read32(+0x%x) = %#x, want %#x", i, off, got, word(off))
						}
					case op < 8:
						charged = false
						if got := as.Peek8(addr); got != ref[off] {
							t.Errorf("op %d: Peek8(+0x%x) = %#x, want %#x", i, off, got, ref[off])
						}
					case op < 10:
						charged = false
						want := uint32(0)
						if fitsWord {
							want = word(off)
						}
						if got := as.Peek32(addr); got != want {
							t.Errorf("op %d: Peek32(+0x%x) = %#x, want %#x", i, off, got, want)
						}
					case op == 10:
						// Release one to three pages; they refault as zero.
						charged = false
						lo := base + uint64(r.Intn(pages))*PageSize
						hi := min(lo+uint64(1+r.Intn(3))*PageSize, base+pages*PageSize)
						as.ReleasePages(th, lo, hi-lo)
						forget(lo, hi)
					case op == 11:
						// Punch a hole and map it again: first fit lands
						// the new mapping in the hole, with no contents.
						charged = false
						lo := base + uint64(r.Intn(pages))*PageSize
						n := uint64(1 + r.Intn(2))
						n = min(n, (base+pages*PageSize-lo)/PageSize)
						if err := as.Munmap(th, lo, n*PageSize); err != nil {
							panic(err)
						}
						again, err := as.Mmap(th, n*PageSize, "refill")
						if err != nil {
							panic(err)
						}
						if again != lo {
							panic(fmt.Sprintf("hole at 0x%x refilled at 0x%x", lo, again))
						}
						forget(lo, lo+n*PageSize)
					default:
						charged = false
					}
					want := before
					if charged {
						want++
					}
					if got := fillTotal(as); got != want {
						t.Errorf("op %d at +0x%x billed %d cache accesses, want %d", i, off, got-before, want-before)
					}
					if t.Failed() {
						return
					}
				}
				// Every byte of the region agrees at the end, touched or not.
				for off, want := range ref {
					if got := as.Peek8(base + uint64(off)); got != want {
						t.Errorf("final Peek8(+0x%x) = %#x, want %#x", off, got, want)
						return
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStraddleChargesLineOfAddress: a 32-bit store at 29-31 bytes into a
// line writes into the next granule but charges only its own line, so the
// next line is still cold for another CPU.
func TestStraddleChargesLineOfAddress(t *testing.T) {
	for off := uint64(29); off < 32; off++ {
		const v = uint32(0x44332211)
		m, c := testSetup(2)
		as := New(1, m, c)
		err := m.Run(func(th *sim.Thread) {
			base, _ := as.Sbrk(th, PageSize)
			moveTo(th, 0)
			as.Write32(th, base+off, v)
			moveTo(th, 1)
			before := as.Stats()
			if got := as.Read8(th, base+32); got != byte(v>>(8*(32-off))) {
				t.Errorf("off %d: byte past the granule = %#x", off, got)
			}
			after := as.Stats()
			if after.FillRemote != before.FillRemote+1 || after.FillC2C != before.FillC2C {
				t.Errorf("off %d: next line not cold: FillRemote %d -> %d, FillC2C %d -> %d",
					off, before.FillRemote, after.FillRemote, before.FillC2C, after.FillC2C)
			}
			if got := as.Read32(th, base+off); got != v {
				t.Errorf("off %d: Read32 = %#x", off, got)
			}
			if got := as.Peek32(base + off); got != v {
				t.Errorf("off %d: Peek32 = %#x", off, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWordSplitAtPageEndFaults: a 32-bit access at a page's last three
// bytes would span two pages and is an allocator bug; it faults.
func TestWordSplitAtPageEndFaults(t *testing.T) {
	for _, write := range []bool{false, true} {
		for off := uint64(PageSize - 3); off < PageSize; off++ {
			m, c := testSetup(1)
			as := New(1, m, c)
			err := m.Run(func(th *sim.Thread) {
				base, _ := as.Sbrk(th, 2*PageSize)
				if write {
					as.Write32(th, base+off, 1)
				} else {
					as.Read32(th, base+off)
				}
			})
			op := "read32-split"
			if write {
				op = "write32-split"
			}
			var f Fault
			if !errors.As(err, &f) || f.Op != op {
				t.Errorf("offset %d: err = %v, want a %s fault", off, err, op)
			}
		}
	}
}
