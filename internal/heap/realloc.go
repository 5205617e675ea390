package heap

import "mtmalloc/internal/sim"

// ReallocInPlace resizes the allocation behind mem to newReq bytes without
// moving it, dlmalloc style: shrink in place (splitting off the tail when
// it can stand alone) or grow in place by absorbing a free successor or the
// top chunk. It returns ok=false when the resize needs a move, which the
// allocator layer performs through its own Malloc policy (so requests past
// the mmap threshold still become mappings). The caller must hold the arena
// lock and mem must belong to this arena (not an mmapped chunk).
func (a *Arena) ReallocInPlace(t *sim.Thread, mem uint64, newReq uint32) (addr uint64, ok bool, err error) {
	a.lastOp = t.Now()
	c := mem - HeaderSz
	w := a.sizeWord(t, c)
	oldSz := w &^ FlagMask
	newSz := a.params.Request2Size(newReq)

	switch {
	case newSz == oldSz:
		return mem, true, nil

	case newSz < oldSz:
		// Shrink: split the tail off when it is big enough to be a chunk;
		// otherwise keep the slack as internal fragmentation.
		if oldSz-newSz < MinChunk {
			return mem, true, nil
		}
		rem := oldSz - newSz
		a.setSizeWord(t, c, newSz|(w&PrevInuse))
		r := c + uint64(newSz)
		a.setSizeWord(t, r, rem|PrevInuse)
		a.stats.Splits++
		a.stats.BytesInUse -= uint64(rem)
		// Free the tail through the ordinary path so it coalesces forward.
		if err := a.Free(t, r+HeaderSz); err != nil {
			return 0, false, err
		}
		// Free() accounting assumes the tail was counted allocated.
		a.stats.Frees--
		a.stats.BytesInUse += uint64(rem)
		return mem, true, nil
	}

	// Grow. First try absorbing the successor.
	next := c + uint64(oldSz)
	if next == a.top(t) {
		topSz := a.chunkSize(t, next)
		if uint64(oldSz)+uint64(topSz) >= uint64(newSz)+MinChunk {
			grow := newSz - oldSz
			a.setSizeWord(t, c, newSz|(w&PrevInuse))
			a.installTop(t, c+uint64(newSz), topSz-grow, true)
			a.accountAlloc(uint64(grow))
			a.stats.GrowsInPlace++
			return mem, true, nil
		}
	} else {
		nsz := a.chunkSize(t, next)
		// Same segment-end guard as Free's forward coalesce: next can be an
		// in-use stub ending exactly at the segment end, with no successor
		// header to read.
		nextFree := false
		if next+uint64(nsz) < a.segmentEndFor(c) {
			nextFree = !a.prevInuse(t, next+uint64(nsz))
		}
		if nextFree && uint64(oldSz)+uint64(nsz) >= uint64(newSz) {
			a.unlink(t, next, nsz)
			merged := oldSz + nsz
			a.setSizeWord(t, c, merged|(w&PrevInuse))
			a.setPrevInuseBit(t, c+uint64(merged), true)
			a.accountAlloc(uint64(merged - oldSz))
			a.stats.GrowsInPlace++
			// Trim the surplus back off.
			if merged-newSz >= MinChunk {
				rem := merged - newSz
				a.setSizeWord(t, c, newSz|(w&PrevInuse))
				r := c + uint64(newSz)
				a.setSizeWord(t, r, rem|PrevInuse)
				a.stats.BytesInUse -= uint64(rem)
				if err := a.Free(t, r+HeaderSz); err != nil {
					return 0, false, err
				}
				a.stats.Frees--
				a.stats.BytesInUse += uint64(rem)
			}
			return mem, true, nil
		}
	}

	// In-place growth impossible: the caller moves the block.
	return 0, false, nil
}

// CopyPayload copies n bytes of user data between simulated addresses in
// word-sized accesses, charging memory traffic like a real memcpy.
func (a *Arena) CopyPayload(t *sim.Thread, dst, src uint64, n uint32) {
	a.stats.BytesCopied += uint64(n)
	i := uint32(0)
	for ; i+4 <= n; i += 4 {
		a.as.Write32(t, dst+uint64(i), a.as.Read32(t, src+uint64(i)))
	}
	for ; i < n; i++ {
		a.as.Write8(t, dst+uint64(i), a.as.Read8(t, src+uint64(i)))
	}
}

// Memzero clears n bytes of user data in word-sized accesses; the calloc
// primitive.
func (a *Arena) Memzero(t *sim.Thread, mem uint64, n uint32) {
	i := uint32(0)
	for ; i+4 <= n; i += 4 {
		a.as.Write32(t, mem+uint64(i), 0)
	}
	for ; i < n; i++ {
		a.as.Write8(t, mem+uint64(i), 0)
	}
}
