package heap

import "mtmalloc/internal/sim"

// Arena header layout inside simulated memory:
//
//	hdrBase + 0   : magic
//	hdrBase + 4   : binmap, 4 words
//	hdrBase + 20  : top chunk pointer
//	hdrBase + 24  : bins, NBins x {fd, bk}
//
// A bin's {fd, bk} pair is addressed as if it were a chunk whose fd field
// lands on the pair: pseudo-chunk address = binAddr - HeaderSz. That is
// dlmalloc's classic trick; it lets the list routines treat bin heads and
// real chunks uniformly.
const (
	magicOff  = 0
	binmapOff = 4
	topOff    = 20
	binsOff   = 24
	hdrSize   = binsOff + NBins*8

	arenaMagic = 0x6d74616c // "mtal"
)

// --- chunk field accessors (all charge simulated memory traffic) ---

func (a *Arena) sizeWord(t *sim.Thread, c uint64) uint32 {
	return a.as.Read32(t, c+4)
}

func (a *Arena) setSizeWord(t *sim.Thread, c uint64, w uint32) {
	a.as.Write32(t, c+4, w)
}

func (a *Arena) chunkSize(t *sim.Thread, c uint64) uint32 {
	return a.sizeWord(t, c) &^ FlagMask
}

func (a *Arena) prevSize(t *sim.Thread, c uint64) uint32 {
	return a.as.Read32(t, c)
}

func (a *Arena) setPrevSize(t *sim.Thread, c uint64, v uint32) {
	a.as.Write32(t, c, v)
}

func (a *Arena) fd(t *sim.Thread, c uint64) uint64 {
	return uint64(a.as.Read32(t, c+8))
}

func (a *Arena) bk(t *sim.Thread, c uint64) uint64 {
	return uint64(a.as.Read32(t, c+12))
}

func (a *Arena) setFd(t *sim.Thread, c, v uint64) {
	a.as.Write32(t, c+8, uint32(v))
}

func (a *Arena) setBk(t *sim.Thread, c, v uint64) {
	a.as.Write32(t, c+12, uint32(v))
}

// prevInuse reports the P bit of chunk c.
func (a *Arena) prevInuse(t *sim.Thread, c uint64) bool {
	return a.sizeWord(t, c)&PrevInuse != 0
}

// setPrevInuseBit sets or clears the P bit of chunk c.
func (a *Arena) setPrevInuseBit(t *sim.Thread, c uint64, on bool) {
	w := a.sizeWord(t, c)
	if on {
		w |= PrevInuse
	} else {
		w &^= PrevInuse
	}
	a.setSizeWord(t, c, w)
}

// --- bin addressing ---

func (a *Arena) binAddr(i int) uint64 { return a.hdrBase + binsOff + uint64(i)*8 }

// binPseudo is the pseudo-chunk standing in for bin i's list head.
func (a *Arena) binPseudo(i int) uint64 { return a.binAddr(i) - HeaderSz }

func (a *Arena) binFirst(t *sim.Thread, i int) uint64 {
	return a.fd(t, a.binPseudo(i))
}

func (a *Arena) binEmpty(t *sim.Thread, i int) bool {
	return a.binFirst(t, i) == a.binPseudo(i)
}

// initBins writes the empty circular lists and clears the binmap.
func (a *Arena) initBins(t *sim.Thread) {
	a.as.Write32(t, a.hdrBase+magicOff, arenaMagic)
	for w := 0; w < 4; w++ {
		a.as.Write32(t, a.hdrBase+binmapOff+uint64(w)*4, 0)
	}
	for i := 0; i < NBins; i++ {
		p := a.binPseudo(i)
		a.setFd(t, p, p)
		a.setBk(t, p, p)
	}
}

// --- binmap ---

func (a *Arena) binmapWord(t *sim.Thread, w int) uint32 {
	return a.as.Read32(t, a.hdrBase+binmapOff+uint64(w)*4)
}

func (a *Arena) markBin(t *sim.Thread, i int) {
	w, bit := i>>5, uint32(1)<<uint(i&31)
	old := a.binmapWord(t, w)
	if old&bit == 0 {
		a.as.Write32(t, a.hdrBase+binmapOff+uint64(w)*4, old|bit)
	}
}

func (a *Arena) clearBin(t *sim.Thread, i int) {
	w, bit := i>>5, uint32(1)<<uint(i&31)
	old := a.binmapWord(t, w)
	if old&bit != 0 {
		a.as.Write32(t, a.hdrBase+binmapOff+uint64(w)*4, old&^bit)
	}
}

// nextMarkedBin returns the first bin index >= from whose binmap bit is
// set, or NBins if none.
func (a *Arena) nextMarkedBin(t *sim.Thread, from int) int {
	for i := from; i < NBins; {
		w := i >> 5
		word := a.binmapWord(t, w)
		// Mask off bits below i within this word.
		word &= ^uint32(0) << uint(i&31)
		if word == 0 {
			i = (w + 1) << 5
			continue
		}
		// Lowest set bit.
		for b := i & 31; b < 32; b++ {
			if word&(1<<uint(b)) != 0 {
				return w<<5 + b
			}
		}
	}
	return NBins
}

// --- list operations ---

// frontlink inserts free chunk c of size sz into its bin. Small bins are
// FIFO (insert at front, take from back); large bins are kept sorted by
// ascending size so the scan loop performs best-fit.
func (a *Arena) frontlink(t *sim.Thread, c uint64, sz uint32) {
	idx := BinIndex(sz)
	p := a.binPseudo(idx)
	if IsSmallRequest(sz) {
		first := a.fd(t, p)
		a.setFd(t, p, c)
		a.setBk(t, c, p)
		a.setFd(t, c, first)
		a.setBk(t, first, c)
	} else {
		// Walk ascending until a chunk at least as large, insert before it.
		succ := a.fd(t, p)
		for succ != p && a.chunkSize(t, succ) < sz {
			succ = a.fd(t, succ)
		}
		pred := a.bk(t, succ)
		a.setFd(t, pred, c)
		a.setBk(t, c, pred)
		a.setFd(t, c, succ)
		a.setBk(t, succ, c)
	}
	a.markBin(t, idx)
	a.stats.BinInserts++
	a.binSettled = false
	// Idle stamp for ReleaseBinned: a freshly binned chunk (or a re-binned
	// coalesce product, which may have resident interior again) starts hot,
	// with its whole-page interior counted resident. A chunk spanning no
	// whole page has nothing to release and gets no tag.
	if lo, hi := binReleasable(c, sz); hi > lo {
		a.binStamps[c] = binTag{at: t.Now(), resident: hi - lo}
		a.binResident += hi - lo
	}
}

// unlink removes chunk c, of size sz, from whatever list it is on. Only a
// chunk spanning a whole page carries a release tag, so the tag books are
// touched for those alone.
func (a *Arena) unlink(t *sim.Thread, c uint64, sz uint32) {
	f := a.fd(t, c)
	b := a.bk(t, c)
	a.setFd(t, b, f)
	a.setBk(t, f, b)
	a.stats.BinRemoves++
	a.binSettled = false
	if lo, hi := binReleasable(c, sz); hi > lo {
		a.binResident -= a.binStamps[c].resident
		delete(a.binStamps, c)
	}
}

// takeLast pops the oldest chunk from small bin i (FIFO order), returning 0
// if the bin is empty.
func (a *Arena) takeLast(t *sim.Thread, i int) uint64 {
	p := a.binPseudo(i)
	last := a.bk(t, p)
	if last == p {
		return 0
	}
	a.unlink(t, last, smallBinSize(i))
	if a.binEmpty(t, i) {
		a.clearBin(t, i)
	}
	return last
}
