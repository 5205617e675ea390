package heap

import (
	"fmt"
	"math/bits"

	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// This file implements a non-blocking buddy page allocator in the style of
// Marotta et al. ("A Non-Blocking Buddy System for Scalable Memory
// Allocation on Multi-Core Machines"): free/allocated state lives in packed
// per-order bitmaps, a block is claimed or released with one CAS on its
// bitmap word, and coalescing on free walks buddy bits upward with a CAS per
// merged level. No thread ever holds a lock across the allocation path, so a
// preempted allocator never convoys the others — the property the mutex-tier
// designs lose past the CPU count.
//
// The simulated version keeps the bitmaps twice: once in simulated memory
// (so probes and updates pay real cache/fault charges through the vm layer)
// and once Go-side as the authoritative mirror (so block selection is
// deterministic: lowest-index first, no map iteration). Each bitmap level
// has one sim.CASPoint pricing the retry traffic on that level's words; one
// summary-word probe is charged per level visited, modelling the per-level
// non-empty hints a real implementation keeps.
//
// Memory is carved from zones: fixed-size power-of-two page runs mapped on
// demand with mbind-style node homing. The only mutex is the zone-grow lock,
// taken when every existing zone failed to serve an allocation — the
// "lock only on grow" shape of the read-mostly refactor.

// ErrBuddyTooLarge is returned for requests beyond one zone's top order.
var ErrBuddyTooLarge = fmt.Errorf("heap: buddy request exceeds zone size")

// DefaultBuddyZonePages is the default zone size (2048 pages = 8 MB).
const DefaultBuddyZonePages = 2048

// BuddyStats counts buddy-allocator activity.
type BuddyStats struct {
	Allocs     uint64
	Frees      uint64
	Splits     uint64
	Merges     uint64
	GrowEvents uint64
	Zones      int
	FreePages  uint64 // current free pages across zones
	AllocPages uint64 // current allocated pages (rounded to block size)

	// Aggregated from the per-level CAS points.
	CASAttempts uint64
	CASFails    uint64
	RetryCycles sim.Time
	// GrowLockAcqs counts acquisitions of the zone-grow mutex, the only
	// lock on the buddy path.
	GrowLockAcqs uint64
}

// buddyZone is one mapped region: a metadata prefix holding the packed
// bitmaps followed by the data pages the bitmaps describe.
type buddyZone struct {
	metaBase  uint64     // bitmap words, in simulated memory
	base      uint64     // first data page
	end       uint64     // one past the last data page
	free      [][]uint64 // Go-side mirror, one packed bitmap per order
	levelOff  []uint64   // byte offset of each order's words inside the metadata
	freePages uint64
}

// Buddy is a non-blocking buddy page allocator over zones of a single
// address space, homed on one NUMA node.
type Buddy struct {
	name      string
	as        *vm.AddressSpace
	node      int
	zonePages int
	maxOrder  int

	zones    []*buddyZone
	growLock *sim.Mutex
	points   []*sim.CASPoint // one per bitmap order

	// allocated tracks live blocks (block address -> order) for double-free
	// and overlap checking; Go-side bookkeeping, never charged.
	allocated map[uint64]int

	stats BuddyStats
}

// NewBuddy creates a buddy allocator serving zones of zonePages pages
// (rounded up to a power of two; 0 means DefaultBuddyZonePages) homed on
// node. No memory is mapped until the first allocation.
func NewBuddy(as *vm.AddressSpace, name string, zonePages, node int) *Buddy {
	if zonePages <= 0 {
		zonePages = DefaultBuddyZonePages
	}
	if zonePages&(zonePages-1) != 0 {
		zonePages = 1 << bits.Len(uint(zonePages))
	}
	m := as.Machine()
	b := &Buddy{
		name:      name,
		as:        as,
		node:      node,
		zonePages: zonePages,
		maxOrder:  bits.TrailingZeros(uint(zonePages)),
		growLock:  m.NewMutex(name + "-grow"),
		allocated: make(map[uint64]int),
	}
	for k := 0; k <= b.maxOrder; k++ {
		b.points = append(b.points, m.NewCASPoint(fmt.Sprintf("%s-L%d", name, k)))
	}
	return b
}

// orderFor returns the smallest order whose block covers pages.
func orderFor(pages int) int {
	if pages <= 1 {
		return 0
	}
	return bits.Len(uint(pages - 1))
}

// BlockPages returns the page count actually reserved for a request of
// pages pages (the enclosing power of two).
func (b *Buddy) BlockPages(pages int) int { return 1 << orderFor(pages) }

// wordAddr returns the simulated address of the bitmap word holding bit idx
// of order k in zone z.
func (z *buddyZone) wordAddr(k, idx int) uint64 {
	return z.metaBase + z.levelOff[k] + uint64(idx/64)*8
}

// syncWord writes the mirror word holding bit idx of order k back to
// simulated memory, charging the store.
func (b *Buddy) syncWord(t *sim.Thread, z *buddyZone, k, idx int) {
	b.as.Write64(t, z.wordAddr(k, idx), z.free[k][idx/64])
}

// probeWord charges the load of the bitmap word holding bit idx of order k.
func (b *Buddy) probeWord(t *sim.Thread, z *buddyZone, k, idx int) {
	b.as.Read64(t, z.wordAddr(k, idx))
}

func setBit(words []uint64, idx int)       { words[idx/64] |= 1 << uint(idx%64) }
func clrBit(words []uint64, idx int)       { words[idx/64] &^= 1 << uint(idx%64) }
func testBit(words []uint64, idx int) bool { return words[idx/64]&(1<<uint(idx%64)) != 0 }

// firstSet returns the lowest set bit index, or -1.
func firstSet(words []uint64) int {
	for w, v := range words {
		if v != 0 {
			return w*64 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// Alloc reserves a block of at least pages pages and returns its
// page-aligned address. The block actually reserved is BlockPages(pages);
// Free must be called with the same page count.
func (b *Buddy) Alloc(t *sim.Thread, pages int) (uint64, error) {
	order := orderFor(pages)
	if order > b.maxOrder {
		return 0, ErrBuddyTooLarge
	}
	for {
		for _, z := range b.zones {
			if addr, ok := b.allocInZone(t, z, order); ok {
				return addr, nil
			}
		}
		if err := b.grow(t); err != nil {
			return 0, err
		}
	}
}

// allocInZone tries to claim a block of the given order from z: find the
// lowest free block at the smallest sufficient order, claim it with one CAS,
// then split downward freeing the upper halves.
func (b *Buddy) allocInZone(t *sim.Thread, z *buddyZone, order int) (uint64, bool) {
	for k := order; k <= b.maxOrder; k++ {
		idx := firstSet(z.free[k])
		// One summary probe per level visited, hit or miss.
		probe := idx
		if probe < 0 {
			probe = 0
		}
		b.probeWord(t, z, k, probe)
		if idx < 0 {
			continue
		}
		// Claim the block: one CAS on its bitmap word.
		t.CAS(b.points[k])
		clrBit(z.free[k], idx)
		b.syncWord(t, z, k, idx)
		// Split down to the requested order, releasing each upper buddy
		// with its own CAS (Marotta et al.: every level update is a
		// single-word atomic, so concurrent frees can interleave).
		i := idx
		for j := k - 1; j >= order; j-- {
			i <<= 1
			buddy := i + 1
			t.CAS(b.points[j])
			setBit(z.free[j], buddy)
			b.syncWord(t, z, j, buddy)
			b.stats.Splits++
		}
		blockPages := uint64(1) << uint(order)
		z.freePages -= blockPages
		b.stats.Allocs++
		b.stats.FreePages -= blockPages
		b.stats.AllocPages += blockPages
		addr := z.base + (uint64(i)<<uint(order))*vm.PageSize
		b.allocated[addr] = order
		return addr, true
	}
	return 0, false
}

// Free returns the block at addr (allocated with the same pages count) and
// coalesces it with free buddies, one CAS per merged level.
func (b *Buddy) Free(t *sim.Thread, addr uint64, pages int) error {
	z := b.zoneOf(addr)
	if z == nil {
		return fmt.Errorf("heap: buddy free of %#x: not a buddy block", addr)
	}
	order := orderFor(pages)
	if got, ok := b.allocated[addr]; !ok {
		return fmt.Errorf("heap: buddy double free of %#x", addr)
	} else if got != order {
		return fmt.Errorf("heap: buddy free of %#x: order %d, allocated order %d", addr, order, got)
	}
	delete(b.allocated, addr)
	i := int((addr - z.base) / vm.PageSize >> uint(order))
	k := order
	// Coalesce upward: while the buddy block is free, claim it with a CAS
	// and retry one level up.
	for k < b.maxOrder {
		buddy := i ^ 1
		b.probeWord(t, z, k, buddy)
		if !testBit(z.free[k], buddy) {
			break
		}
		t.CAS(b.points[k])
		clrBit(z.free[k], buddy)
		b.syncWord(t, z, k, buddy)
		b.stats.Merges++
		i >>= 1
		k++
	}
	t.CAS(b.points[k])
	setBit(z.free[k], i)
	b.syncWord(t, z, k, i)
	blockPages := uint64(1) << uint(order)
	z.freePages += blockPages
	b.stats.Frees++
	b.stats.FreePages += blockPages
	b.stats.AllocPages -= blockPages
	return nil
}

// Contains reports whether addr lies inside one of the buddy's data zones.
func (b *Buddy) Contains(addr uint64) bool { return b.zoneOf(addr) != nil }

func (b *Buddy) zoneOf(addr uint64) *buddyZone {
	for _, z := range b.zones {
		if addr >= z.base && addr < z.end {
			return z
		}
	}
	return nil
}

// grow maps one more zone. This is the only locked path: growing is rare
// and mutates the zone list, so it runs under a mutex while the allocation
// fast path stays lock-free.
func (b *Buddy) grow(t *sim.Thread) error {
	t.Lock(b.growLock)
	defer t.Unlock(b.growLock)
	b.stats.GrowLockAcqs++

	// Bitmap bytes: one bit per block at every order, padded to words.
	var metaBytes uint64
	levelOff := make([]uint64, b.maxOrder+1)
	for k := 0; k <= b.maxOrder; k++ {
		levelOff[k] = metaBytes
		words := (b.zonePages>>uint(k) + 63) / 64
		metaBytes += uint64(words) * 8
	}
	metaLen := (metaBytes + vm.PageSize - 1) &^ (vm.PageSize - 1)
	dataLen := uint64(b.zonePages) * vm.PageSize

	base, err := b.as.MmapOnNode(t, metaLen+dataLen, b.name, b.node)
	if err != nil {
		return err
	}
	z := &buddyZone{
		metaBase:  base,
		base:      base + metaLen,
		end:       base + metaLen + dataLen,
		levelOff:  levelOff,
		freePages: uint64(b.zonePages),
	}
	for k := 0; k <= b.maxOrder; k++ {
		z.free = append(z.free, make([]uint64, (b.zonePages>>uint(k)+63)/64))
	}
	// The whole zone starts as one free top-order block.
	setBit(z.free[b.maxOrder], 0)
	b.syncWord(t, z, b.maxOrder, 0)
	b.zones = append(b.zones, z)
	b.stats.GrowEvents++
	b.stats.Zones = len(b.zones)
	b.stats.FreePages += uint64(b.zonePages)
	return nil
}

// Stats returns a snapshot of the buddy counters, with the CAS totals
// aggregated across the per-order points and the grow-lock acquisitions
// read from the mutex.
func (b *Buddy) Stats() BuddyStats {
	s := b.stats
	for _, p := range b.points {
		st := p.PointStats()
		s.CASAttempts += st.CASAttempts
		s.CASFails += st.CASFails
		s.RetryCycles += st.WaitCycles
	}
	s.GrowLockAcqs = b.growLock.Acquisitions
	return s
}

// Check verifies the buddy invariants: the Go mirror matches the bitmap
// words in simulated memory, free blocks are disjoint from each other and
// from live allocations, and the page accounting adds up. It reads memory
// with Peek (uncharged) so checking does not perturb the simulation.
func (b *Buddy) Check() error {
	var freePages, zonePagesTotal uint64
	for zi, z := range b.zones {
		covered := make([]bool, b.zonePages) // pages claimed by a free block
		var zoneFree uint64
		for k := 0; k <= b.maxOrder; k++ {
			nbits := b.zonePages >> uint(k)
			for idx := 0; idx < nbits; idx++ {
				inMem := b.peekBit(z, k, idx)
				if inMem != testBit(z.free[k], idx) {
					return fmt.Errorf("heap: buddy %s zone %d order %d bit %d: memory %v, mirror %v",
						b.name, zi, k, idx, inMem, !inMem)
				}
				if !testBit(z.free[k], idx) {
					continue
				}
				zoneFree += 1 << uint(k)
				for p := idx << uint(k); p < (idx+1)<<uint(k); p++ {
					if covered[p] {
						return fmt.Errorf("heap: buddy %s zone %d: page %d in two free blocks", b.name, zi, p)
					}
					covered[p] = true
				}
			}
		}
		if zoneFree != z.freePages {
			return fmt.Errorf("heap: buddy %s zone %d: bitmap free pages %d, counter %d",
				b.name, zi, zoneFree, z.freePages)
		}
		// Live allocations must not overlap free blocks.
		for addr, order := range b.allocated {
			if addr < z.base || addr >= z.end {
				continue
			}
			p0 := int((addr - z.base) / vm.PageSize)
			for p := p0; p < p0+(1<<uint(order)); p++ {
				if covered[p] {
					return fmt.Errorf("heap: buddy %s zone %d: page %d both free and allocated", b.name, zi, p)
				}
				covered[p] = true
			}
		}
		freePages += zoneFree
		zonePagesTotal += uint64(b.zonePages)
	}
	if freePages != b.stats.FreePages {
		return fmt.Errorf("heap: buddy %s: free pages %d, stats say %d", b.name, freePages, b.stats.FreePages)
	}
	if b.stats.FreePages+b.stats.AllocPages != zonePagesTotal {
		return fmt.Errorf("heap: buddy %s: free %d + alloc %d != zone pages %d",
			b.name, b.stats.FreePages, b.stats.AllocPages, zonePagesTotal)
	}
	return nil
}

// peekBit reads a bitmap bit from simulated memory without charging.
func (b *Buddy) peekBit(z *buddyZone, k, idx int) bool {
	addr := z.wordAddr(k, idx)
	// Peek32 reads an aligned 32-bit half of the word.
	half := addr + uint64((idx%64)/32)*4
	v := b.as.Peek32(half)
	return v&(1<<uint(idx%32)) != 0
}
