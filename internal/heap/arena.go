package heap

import (
	"fmt"
	"reflect"

	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// binTag is the Go-side record ReleaseBinned keeps per binned free chunk
// with a whole page inside it: when frontlink parked it, and how many
// whole-page interior bytes are still resident (an upper-bound estimate —
// pages the program never touched count too; zero once the interior has been
// released).
type binTag struct {
	at       sim.Time
	resident uint64
}

// segment is one contiguous region of heap managed by an arena. The main
// arena's first segment grows with sbrk; further segments (after an sbrk
// failure, or for sub-arenas) are anonymous mappings. Only the last segment
// carries the top chunk.
type segment struct {
	start, end uint64
	mapped     bool // created by mmap (vs the brk segment)
}

// Stats counts arena activity.
type Stats struct {
	Mallocs       uint64
	Frees         uint64
	BinHits       uint64 // served from an exact small bin
	BinScans      uint64 // served from a larger bin (with split)
	TopAllocs     uint64 // carved from the top chunk
	Splits        uint64
	Coalesces     uint64
	BinInserts    uint64
	BinRemoves    uint64
	Extends       uint64
	Trims         uint64
	MmapChunks    uint64
	MunmapChunks  uint64
	TopReleases   uint64 // TrimTop calls that released at least one page
	BytesReleased uint64 // bytes handed back to the kernel by TrimTop
	// Binned-chunk page release (ReleaseBinned, the PageHeap-style path that
	// reaches free memory TrimTop cannot).
	BinReleases      uint64 // binned chunks whose interior lost at least one page
	BinBytesReleased uint64 // bytes handed back to the kernel by ReleaseBinned
	BytesInUse       uint64
	PeakInUse        uint64
	// ResidentBytes is the arena's footprint in touched-and-unreleased
	// pages, filled by Stats() at snapshot time rather than maintained as a
	// counter. Against BytesInUse it is the external-fragmentation gauge:
	// resident-but-not-live bytes are memory the arena holds from the OS
	// that no caller is using.
	ResidentBytes uint64
}

// Add accumulates o into s, field by field. The reflection walk is the one
// summing path the allocator-level Stats aggregation uses: a counter added
// to this struct is summed automatically, instead of being silently dropped
// from a hand-written field list (which is exactly what happened to
// BinInserts/BinRemoves before this existed). Every field must be a uint64
// counter; Add panics otherwise, so a field of another type cannot slip in
// unsummed.
func (s *Stats) Add(o Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o)
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Field(i)
		if f.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("heap: Stats field %s is not a uint64 counter; teach Add how to sum it", sv.Type().Field(i).Name))
		}
		f.SetUint(f.Uint() + ov.Field(i).Uint())
	}
}

// Arena is one heap: a header (bins, binmap, top pointer) plus one or more
// segments of chunk memory, protected by one mutex. The main arena lives in
// the brk segment; sub-arenas (ptmalloc's contention-escape mechanism) live
// in their own mappings.
type Arena struct {
	Index  int
	IsMain bool
	Lock   *sim.Mutex
	// Node is the NUMA home node of the arena's memory: every segment it
	// maps is bound there (vm.MmapOnNode), so its chunks are local to the
	// threads the node-sharded pool routes to it. Node < 0 — the main arena
	// and every arena predating the sharded pool — means first-touch
	// placement, the node-blind behaviour.
	Node int

	as       *vm.AddressSpace
	params   *Params
	hdrBase  uint64
	segments []segment
	// mappedTotal tracks mmap'd segment bytes for the sub-arena size cap,
	// mapCap (subArenaSize, unless a same-package test narrows it).
	mappedTotal uint64
	mapCap      uint64

	// binStamps records, per binned free chunk whose releasable whole-page
	// interior is non-empty, the virtual time frontlink parked it plus that
	// interior; unlink clears the entry. A chunk with no whole page inside
	// has nothing ReleaseBinned could hand back, and is the common case, so
	// it carries no tag and binning it touches no map. ReleaseBinned
	// consults the tags to tell idle chunks from ones the allocator is still
	// turning over, and zeroes the resident estimate once a chunk's interior
	// has been handed back (the tag stays, resident 0) so repeat sweeps skip
	// it without charged reads. binResident sums the estimates: the pad
	// ReleaseBinned keeps is measured against it. These are Go-side books
	// (like the segment list), only ever looked up by key, never iterated
	// outside the uncharged Check.
	binStamps   map[uint64]binTag
	binResident uint64
	// binSettled remembers that the last ReleaseBinned sweep (with the
	// floors below) released nothing and skipped no chunk merely for being
	// hot: until frontlink/unlink change the bins, every repeat sweep would
	// be identical, so it is answered without a walk.
	binSettled                   bool
	binSettledMin, binSettledPad uint64

	// lastOp is the virtual time of the most recent Malloc/Free on this
	// arena; the scavenger's trim source skips arenas active since its
	// cutoff so mid-burst arenas are not forced to refault.
	lastOp sim.Time

	stats Stats
}

// NewMain creates the main arena for an address space: its header and heap
// live in the brk segment, extended by sbrk.
func NewMain(t *sim.Thread, as *vm.AddressSpace, params *Params) (*Arena, error) {
	a := &Arena{
		Index:     0,
		IsMain:    true,
		Lock:      as.Machine().NewMutex("arena.0"),
		Node:      -1,
		as:        as,
		params:    params,
		binStamps: make(map[uint64]binTag),
	}
	// One page for the header plus the first sliver of heap.
	base, err := as.Sbrk(t, pageCeilI(hdrSize+4096))
	if err != nil {
		return nil, err
	}
	a.hdrBase = base
	a.initBins(t)
	first := a.alignFirstChunk(base + hdrSize)
	a.segments = []segment{{start: first, end: as.Brk()}}
	a.installTop(t, first, uint32(as.Brk()-first), true)
	return a, nil
}

// NewSub creates a ptmalloc-style sub-arena in its own mapping, with
// first-touch page placement.
func NewSub(t *sim.Thread, as *vm.AddressSpace, params *Params, index int) (*Arena, error) {
	return NewSubOnNode(t, as, params, index, -1)
}

// NewSubOnNode creates a sub-arena whose mappings — the initial one and
// every later extension segment — are bound to the given NUMA home node
// (node < 0 keeps first-touch placement, identical to NewSub). The
// node-sharded arena pool uses it so a shard's chunks are always local to
// the threads routed there.
func NewSubOnNode(t *sim.Thread, as *vm.AddressSpace, params *Params, index, node int) (*Arena, error) {
	a := &Arena{
		Index:     index,
		IsMain:    false,
		Lock:      as.Machine().NewMutex(fmt.Sprintf("arena.%d", index)),
		Node:      node,
		as:        as,
		params:    params,
		mapCap:    subArenaSize,
		binStamps: make(map[uint64]binTag),
	}
	const initial = subArenaSize / 8
	base, err := as.MmapOnNode(t, initial, fmt.Sprintf("arena.%d", index), node)
	if err != nil {
		return nil, err
	}
	a.hdrBase = base
	a.mappedTotal = initial
	a.initBins(t)
	first := a.alignFirstChunk(base + hdrSize)
	a.segments = []segment{{start: first, end: base + initial, mapped: true}}
	a.installTop(t, first, uint32(base+initial-first), true)
	return a, nil
}

// alignFirstChunk offsets addr so the returned user pointer (chunk +
// HeaderSz) honours the configured alignment.
func (a *Arena) alignFirstChunk(addr uint64) uint64 {
	align := uint64(a.params.Align)
	if align < 8 {
		align = 8
	}
	mis := (addr + HeaderSz) % align
	if mis != 0 {
		addr += align - mis
	}
	return addr
}

// installTop writes a top-chunk header at c with the given byte size.
func (a *Arena) installTop(t *sim.Thread, c uint64, size uint32, prevInuse bool) {
	w := size &^ FlagMask
	if prevInuse {
		w |= PrevInuse
	}
	a.setSizeWord(t, c, w)
	a.as.Write32(t, a.hdrBase+topOff, uint32(c))
}

// top returns the current top chunk address.
func (a *Arena) top(t *sim.Thread) uint64 {
	return uint64(a.as.Read32(t, a.hdrBase+topOff))
}

// Contains reports whether addr falls in one of the arena's segments.
// It is a Go-side index (ptmalloc's heap_for_ptr computes this from address
// arithmetic; the lookup cost is charged by the caller).
func (a *Arena) Contains(addr uint64) bool {
	for _, s := range a.segments {
		if addr >= s.start && addr < s.end {
			return true
		}
	}
	return false
}

// Stats returns a copy of the arena statistics, with the resident-bytes
// gauge snapshotted from the vm layer's residency books.
func (a *Arena) Stats() Stats {
	s := a.stats
	s.ResidentBytes = a.ResidentBytes()
	return s
}

// ResidentBytes sums the resident pages across the arena's segments — the
// numerator of the external-fragmentation gauge (vs BytesInUse). Go-side
// bookkeeping, uncharged.
func (a *Arena) ResidentBytes() uint64 {
	var n uint64
	for _, s := range a.segments {
		n += a.as.ResidentBytesIn(s.start, s.end)
	}
	return n
}

// LastOp returns the virtual time of the arena's most recent malloc-family
// operation; zero until the first one. The scavenger reads it (a Go-side
// load, uncharged) to tell a mid-burst arena from an idle one.
func (a *Arena) LastOp() sim.Time { return a.lastOp }

// AddressSpace returns the arena's backing address space.
func (a *Arena) AddressSpace() *vm.AddressSpace { return a.as }

// Malloc allocates a chunk for req bytes and returns the user address.
// The caller must hold a.Lock.
func (a *Arena) Malloc(t *sim.Thread, req uint32) (uint64, error) {
	sz := a.params.Request2Size(req)
	a.stats.Mallocs++
	a.lastOp = t.Now()

	// Exact small-bin hit, then the neighbouring bin (whose chunks are at
	// most 8 bytes larger — below the split threshold, dlmalloc uses them
	// whole).
	if IsSmallRequest(sz) {
		idx := BinIndex(sz)
		if c := a.takeLast(t, idx); c != 0 {
			a.stats.BinHits++
			return a.finishAlloc(t, c, a.chunkSize(t, c)), nil
		}
		if idx+1 < 64 { // next small bin: at most 8 bytes larger, use whole
			if c := a.takeLast(t, idx+1); c != 0 {
				a.stats.BinHits++
				return a.finishAlloc(t, c, a.chunkSize(t, c)), nil
			}
		}
	}

	// Scan bins via the binmap for the best (smallest adequate) fit. Large
	// requests start at their own bin (kept size-sorted, so the walk is
	// best-fit); small requests already tried their two exact bins.
	startIdx := BinIndex(sz)
	if IsSmallRequest(sz) {
		startIdx = BinIndex(sz) + 2
	}
	for idx := a.nextMarkedBin(t, startIdx); idx < NBins; idx = a.nextMarkedBin(t, idx+1) {
		p := a.binPseudo(idx)
		c := a.binFirst(t, idx)
		for c != p {
			csz := a.chunkSize(t, c)
			if csz >= sz {
				a.unlink(t, c, csz)
				if a.binEmpty(t, idx) {
					a.clearBin(t, idx)
				}
				a.stats.BinScans++
				return a.splitAndFinish(t, c, csz, sz), nil
			}
			c = a.fd(t, c)
		}
		// Stale binmap bit: every chunk was too small only happens for the
		// request's own bin; larger bins always fit. Clear if truly empty.
		if a.binEmpty(t, idx) {
			a.clearBin(t, idx)
		}
	}

	// Carve from the top chunk, extending the heap if needed.
	for {
		topC := a.top(t)
		topSz := a.chunkSize(t, topC)
		if topSz >= sz+MinChunk {
			a.stats.TopAllocs++
			newTop := topC + uint64(sz)
			a.installTop(t, newTop, topSz-sz, true)
			w := sz
			if a.prevInuse(t, topC) {
				w |= PrevInuse
			}
			a.setSizeWord(t, topC, w)
			a.accountAlloc(uint64(sz))
			return topC + HeaderSz, nil
		}
		if err := a.extend(t, sz); err != nil {
			// Failed attempts are not allocations: without this, the
			// arena-full fallback sweeps (ptmalloc's and the thread
			// cache's) inflate Mallocs past Frees and fake leaks.
			a.stats.Mallocs--
			return 0, err
		}
	}
}

// finishAlloc marks a bin-served chunk in use and returns its user address.
func (a *Arena) finishAlloc(t *sim.Thread, c uint64, csz uint32) uint64 {
	next := c + uint64(csz)
	a.setPrevInuseBit(t, next, true)
	a.accountAlloc(uint64(csz))
	return c + HeaderSz
}

// splitAndFinish trims chunk c (size csz) to sz, binning the remainder when
// it is big enough to stand alone.
func (a *Arena) splitAndFinish(t *sim.Thread, c uint64, csz, sz uint32) uint64 {
	rem := csz - sz
	if rem >= MinChunk {
		a.stats.Splits++
		r := c + uint64(sz)
		// The remainder follows an in-use chunk.
		a.setSizeWord(t, r, rem|PrevInuse)
		a.setPrevSize(t, r+uint64(rem), rem) // footer
		a.frontlink(t, r, rem)
		w := sz
		if a.prevInuse(t, c) {
			w |= PrevInuse
		}
		a.setSizeWord(t, c, w)
		a.accountAlloc(uint64(sz))
		return c + HeaderSz
	}
	return a.finishAlloc(t, c, csz)
}

func (a *Arena) accountAlloc(n uint64) {
	a.stats.BytesInUse += n
	if a.stats.BytesInUse > a.stats.PeakInUse {
		a.stats.PeakInUse = a.stats.BytesInUse
	}
}

// Free returns the chunk holding user address mem to the arena. The caller
// must hold a.Lock and must have routed mem to the owning arena.
func (a *Arena) Free(t *sim.Thread, mem uint64) error {
	a.lastOp = t.Now()
	c := mem - HeaderSz
	if !a.Contains(c) {
		return fmt.Errorf("%w: 0x%x not in arena %d", ErrBadFree, mem, a.Index)
	}
	w := a.sizeWord(t, c)
	sz := w &^ FlagMask
	if w&IsMmapped != 0 {
		return fmt.Errorf("%w: mmapped chunk routed to arena free", ErrBadFree)
	}
	if sz < MinChunk || c+uint64(sz) > a.segmentEndFor(c) {
		return fmt.Errorf("%w: corrupt size %d at 0x%x", ErrBadFree, sz, c)
	}
	a.stats.Frees++
	a.stats.BytesInUse -= uint64(sz)

	// Backward coalesce.
	if w&PrevInuse == 0 {
		psz := a.prevSize(t, c)
		p := c - uint64(psz)
		a.unlink(t, p, psz)
		a.stats.Coalesces++
		c = p
		sz += psz
	}

	next := c + uint64(sz)
	if next == a.top(t) {
		// Merge into top.
		topSz := a.chunkSize(t, next)
		a.installTop(t, c, sz+topSz, a.prevInuse(t, c))
		a.maybeTrim(t)
		return nil
	}

	nsz := a.chunkSize(t, next)
	// The chunk after next exists only inside the segment: abandonTop's
	// waste stub is an in-use chunk ending flush against the segment end,
	// and reading its successor's P bit would sample another mapping's
	// bytes and can fake a free neighbour.
	nextInuse := true
	if next+uint64(nsz) < a.segmentEndFor(c) {
		nextInuse = a.prevInuse(t, next+uint64(nsz))
	}
	if !nextInuse {
		// Forward coalesce (next is free and not top).
		a.unlink(t, next, nsz)
		a.stats.Coalesces++
		sz += nsz
		next = c + uint64(sz)
	}

	// Bin the (possibly merged) chunk: fix header, footer and neighbour P.
	w = sz
	if a.prevInuse(t, c) {
		w |= PrevInuse
	}
	a.setSizeWord(t, c, w)
	a.setPrevSize(t, next, sz)
	a.setPrevInuseBit(t, next, false)
	a.frontlink(t, c, sz)
	return nil
}

// segmentEndFor returns the end of the segment containing c (0 if none).
func (a *Arena) segmentEndFor(c uint64) uint64 {
	for _, s := range a.segments {
		if c >= s.start && c < s.end {
			return s.end
		}
	}
	return 0
}

// extend grows the heap so the top chunk can satisfy a request of sz bytes.
func (a *Arena) extend(t *sim.Thread, sz uint32) error {
	a.stats.Extends++
	need := pageCeilI(int64(sz) + MinChunk + 64)

	if a.IsMain {
		var sbrkErr error
		if a.topContiguous() {
			if _, err := a.as.Sbrk(t, need); err == nil {
				topC := a.top(t)
				topSz := a.chunkSize(t, topC)
				a.installTop(t, topC, topSz+uint32(need), a.prevInuse(t, topC))
				a.segments[len(a.segments)-1].end = a.as.Brk()
				return nil
			} else {
				sbrkErr = err
			}
		}
		// sbrk failed, or someone else moved the brk from under us: only
		// glibc >= 2.1.3 retries the extension with mmap (§3 of the paper).
		if !a.params.RetrySbrkWithMmap {
			if sbrkErr != nil {
				return fmt.Errorf("%w: sbrk cannot extend the heap: %w", ErrNoMemory, sbrkErr)
			}
			return fmt.Errorf("%w: sbrk cannot extend the heap", ErrNoMemory)
		}
	}

	mapLen := uint64(need)
	if !a.IsMain {
		mapLen = max(mapLen, a.mapCap/8)
		if a.mappedTotal+mapLen > a.mapCap {
			return ErrArenaFull
		}
	} else if mapLen < 64*vm.PageSize {
		mapLen = 64 * vm.PageSize
	}
	base, err := a.as.MmapOnNode(t, mapLen, fmt.Sprintf("arena.%d.seg%d", a.Index, len(a.segments)), a.Node)
	if err != nil {
		// Double-wrap so callers can match either the allocator-level
		// ErrNoMemory or the vm-level cause (vm.ErrNoMem under a commit
		// limit or injected fault).
		return fmt.Errorf("%w: %w", ErrNoMemory, err)
	}
	a.mappedTotal += mapLen
	a.abandonTop(t)
	first := a.alignFirstChunk(base)
	a.segments = append(a.segments, segment{start: first, end: base + mapLen, mapped: true})
	a.installTop(t, first, uint32(base+mapLen-first), true)
	return nil
}

// topContiguous reports whether the top chunk ends exactly at the brk, so
// sbrk growth extends it in place.
func (a *Arena) topContiguous() bool {
	last := a.segments[len(a.segments)-1]
	return !last.mapped && last.end == a.as.Brk()
}

// abandonTop converts the current top chunk into an ordinary free chunk
// with a fencepost, because a new non-contiguous segment is taking over.
func (a *Arena) abandonTop(t *sim.Thread) {
	topC := a.top(t)
	topSz := a.chunkSize(t, topC)
	pFlag := a.prevInuse(t, topC)
	if topSz < MinChunk+16 {
		// Too small to fence and free: waste it as a permanent allocation.
		w := topSz
		if pFlag {
			w |= PrevInuse
		}
		a.setSizeWord(t, topC, w)
		return
	}
	freeSz := topSz - 16
	w := freeSz
	if pFlag {
		w |= PrevInuse
	}
	a.setSizeWord(t, topC, w)
	// Fencepost pair: fp looks like an 8-byte free-boundary, fp2 marks fp
	// as in use so nothing ever coalesces past the segment end.
	fp := topC + uint64(freeSz)
	a.setPrevSize(t, fp, freeSz)
	a.setSizeWord(t, fp, 8) // P=0: the chunk before (our free chunk) is free
	fp2 := fp + 8
	a.setSizeWord(t, fp2, 8|PrevInuse)
	a.frontlink(t, topC, freeSz)
}

// maybeTrim returns surplus top memory to the system when it exceeds the
// trim threshold (main arena, contiguous top only).
func (a *Arena) maybeTrim(t *sim.Thread) {
	if !a.params.Trim || !a.IsMain || !a.topContiguous() {
		return
	}
	topC := a.top(t)
	topSz := a.chunkSize(t, topC)
	if topSz <= a.params.TrimThreshold {
		return
	}
	keep := int64(MinChunk + 64)
	extra := (int64(topSz) - keep) &^ (vm.PageSize - 1)
	if extra <= 0 {
		return
	}
	if _, err := a.as.Sbrk(t, -extra); err != nil {
		return
	}
	a.stats.Trims++
	a.installTop(t, topC, topSz-uint32(extra), a.prevInuse(t, topC))
	a.segments[len(a.segments)-1].end = a.as.Brk()
}

// TrimTop is the scavenger's malloc_trim: it releases the resident tail of
// the top chunk past pad bytes back to the kernel with ReleasePages, so it
// works on every arena — including the mmap-segment sub-arenas that the
// free-time sbrk trim (maybeTrim) can never shrink. The top chunk stays
// mapped and keeps its header; only whole pages strictly inside its free
// interior are dropped, and the next allocation carved from them pays the
// refault cost. Returns the number of bytes released. The caller must hold
// a.Lock.
func (a *Arena) TrimTop(t *sim.Thread, pad uint32) uint64 {
	topC := a.top(t)
	topSz := a.chunkSize(t, topC)
	// Keep the header plus pad bytes resident; release whole pages between
	// there and the top chunk's end.
	lo := pageCeilU(topC + HeaderSz + uint64(pad))
	hi := (topC + uint64(topSz)) &^ (vm.PageSize - 1)
	if hi <= lo {
		return 0
	}
	n := a.as.ReleasePages(t, lo, hi-lo)
	if n > 0 {
		a.stats.TopReleases++
		a.stats.BytesReleased += n
	}
	return n
}

// binInteriorLo returns the first releasable address of a binned chunk: the
// chunk's header plus fd/bk words stay resident below it. Both the
// frontlink-time resident estimate and the ReleasePages call derive their
// bound from here, so the two can never drift apart.
func binInteriorLo(c uint64) uint64 {
	return pageCeilU(c + HeaderSz + 2*SizeSz)
}

// binReleasable returns the whole-page interior of a binned chunk at c with
// size sz: the bytes ReleaseBinned may hand back. The prev-size footer lives
// in the next chunk's first word, outside the range already.
func binReleasable(c uint64, sz uint32) (lo, hi uint64) {
	lo = binInteriorLo(c)
	hi = (c + uint64(sz)) &^ (vm.PageSize - 1)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// BinResidentEstimate returns the arena's running estimate of resident
// whole-page interior bytes across its binned chunks (an upper bound: pages
// the program never dirtied count too).
func (a *Arena) BinResidentEstimate() uint64 { return a.binResident }

// ReleaseBinned is the PageHeap-style counterpart to TrimTop: it walks the
// bins in deterministic order (descending index, list order within a bin)
// and, for every free chunk that has sat binned since before cutoff,
// releases the whole pages strictly inside it back to the kernel with
// ReleasePages. The chunk's header and fd/bk words at the front stay
// resident — and the prev-size footer lives in the next chunk's first word,
// outside the released range — so unlink, coalescing and Check keep working
// unchanged; the interior reads as zero and the next carve-out pays the
// refault cost.
//
// Two floors bound the sweep. Chunks whose releasable interior is smaller
// than minBytes are skipped: below that the madvise is not worth its
// syscall. And the arena keeps up to pad bytes of binned interior resident
// (measured against BinResidentEstimate), the binned analogue of the top
// trim's pad: the walk runs biggest-first (descending bin index, and within
// a size-sorted large bin from the bk end), so the big, cold chunks go
// first — one madvise covering the most pages — while the smallest chunks,
// exactly the ones a best-fit refill carves first when the next burst
// arrives, stay warm under the pad. Returns the number of bytes released.
// The caller must hold a.Lock.
func (a *Arena) ReleaseBinned(t *sim.Thread, cutoff sim.Time, minBytes, pad uint64) uint64 {
	if minBytes < vm.PageSize {
		minBytes = vm.PageSize
	}
	if a.binSettled && minBytes == a.binSettledMin && pad == a.binSettledPad {
		return 0 // the bins have not changed since a fruitless sweep
	}
	released := uint64(0)
	hotSkips := false
	for idx := NBins - 1; idx >= 2; idx-- {
		if a.binResident < pad+minBytes {
			break // everything left fits under the pad
		}
		// A bin whose largest possible chunk cannot span minBytes of whole
		// pages has nothing to give: skip it without touching its list.
		_, hiSz := binRange(idx)
		if uint64(hiSz) < minBytes+MinChunk {
			continue
		}
		// Large bins are kept sorted ascending by size, so the bk walk
		// visits the biggest chunks first — matching the bin order above.
		p := a.binPseudo(idx)
		for c := a.bk(t, p); c != p; c = a.bk(t, c) {
			tag, ok := a.binStamps[c]
			if !ok || tag.resident < minBytes || a.binResident-tag.resident < pad {
				continue
			}
			if tag.at >= cutoff {
				hotSkips = true // will age in: the next sweep may take it
				continue
			}
			n := a.as.ReleasePages(t, binInteriorLo(c), tag.resident)
			// Nothing can touch a free chunk's interior while it stays
			// binned, so whatever this sweep left non-resident stays that
			// way: zero the estimate and spare later sweeps the repeat walk.
			a.binResident -= tag.resident
			tag.resident = 0
			a.binStamps[c] = tag
			if n > 0 {
				a.stats.BinReleases++
				a.stats.BinBytesReleased += n
				released += n
			}
		}
	}
	// A sweep that shed nothing and passed over no still-hot candidate is in
	// steady state: only a bin change (frontlink/unlink) can alter the next
	// sweep's outcome, so skip the walks until one happens. The pad and
	// floor are remembered because a different caller configuration would
	// judge the same bins differently.
	if released == 0 && !hotSkips {
		a.binSettled = true
		a.binSettledMin, a.binSettledPad = minBytes, pad
	}
	return released
}

// MmapChunk serves one request with a dedicated anonymous mapping (requests
// at or above the mmap threshold). It does not require the arena lock in
// ptmalloc and is placed here for chunk-format consistency. When the address
// space's reuse cache holds a parked region of the same mapping length it is
// re-handed out without a syscall and with its pages still resident.
func (a *Arena) MmapChunk(t *sim.Thread, req uint32) (uint64, error) {
	sz := a.params.Request2Size(req)
	align := uint64(a.params.Align)
	if align < 8 {
		align = 8
	}
	mapLen := pageCeilU(uint64(sz) + HeaderSz + align)
	base, reused := a.as.MmapFromReuse(t, mapLen)
	if !reused {
		b, err := a.as.Mmap(t, mapLen, "mmap-chunk")
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrNoMemory, err)
		}
		base = b
	}
	c := a.alignFirstChunk(base)
	offset := c - base
	a.setPrevSize(t, c, uint32(offset))
	a.setSizeWord(t, c, uint32(mapLen-offset-HeaderSz)|IsMmapped)
	a.stats.MmapChunks++
	a.accountAlloc(mapLen)
	return c + HeaderSz, nil
}

// FreeMmapChunk releases a chunk created by MmapChunk. MunmapChunks counts
// the chunk-level release either way; whether a munmap syscall really
// happened is visible in the address space's MunmapCalls/MmapReuseParks.
func (a *Arena) FreeMmapChunk(t *sim.Thread, mem uint64) error {
	c := mem - HeaderSz
	w := a.sizeWord(t, c)
	if w&IsMmapped == 0 {
		return fmt.Errorf("%w: not an mmapped chunk", ErrBadFree)
	}
	offset := uint64(a.prevSize(t, c))
	base := c - offset
	mapLen := uint64(w&^FlagMask) + offset + HeaderSz
	a.stats.MunmapChunks++
	a.stats.BytesInUse -= mapLen
	parked, err := a.as.MunmapReuse(t, base, mapLen)
	if err != nil {
		return err
	}
	if parked {
		// A parked region keeps its pages, so the stale header would still
		// read as an mmapped chunk and a double free would park the region
		// twice (aliasing two live allocations later). Poison the size word
		// so the IsMmapped guard rejects the second free instead; MmapChunk
		// rewrites the header when the region is reused.
		a.setSizeWord(t, c, 0)
		return nil
	}
	return a.as.Munmap(t, base, mapLen)
}

// IsMmappedMem reports whether the chunk behind mem carries the M flag.
func (a *Arena) IsMmappedMem(t *sim.Thread, mem uint64) bool {
	return a.sizeWord(t, mem-HeaderSz)&IsMmapped != 0
}

// ChunkSizeOf returns the full chunk size (flags stripped) behind a user
// pointer, charging one header read. Thread caches use it to class chunks
// without taking the arena lock.
func (a *Arena) ChunkSizeOf(t *sim.Thread, mem uint64) uint32 {
	return a.sizeWord(t, mem-HeaderSz) &^ FlagMask
}

// UsableSize returns the usable bytes behind a user pointer.
func (a *Arena) UsableSize(t *sim.Thread, mem uint64) uint32 {
	w := a.sizeWord(t, mem-HeaderSz)
	sz := w &^ FlagMask
	if w&IsMmapped != 0 {
		return sz
	}
	return sz - SizeSz
}

func pageCeilI(n int64) int64 {
	return (n + vm.PageSize - 1) &^ (vm.PageSize - 1)
}

func pageCeilU(n uint64) uint64 {
	return (n + vm.PageSize - 1) &^ (vm.PageSize - 1)
}
