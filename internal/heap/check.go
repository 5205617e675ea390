package heap

import "fmt"

// ChunkInfo describes one chunk found by Walk.
type ChunkInfo struct {
	Addr  uint64
	Size  uint32
	Free  bool
	IsTop bool
}

// Walk visits every chunk in every segment in address order using uncharged
// reads, so it can run inside tests and invariant checks without disturbing
// simulated timing. The callback may return false to stop early.
func (a *Arena) Walk(visit func(ChunkInfo) bool) error {
	topC := uint64(a.as.Peek32(a.hdrBase + topOff))
	for _, seg := range a.segments {
		c := seg.start
		for c < seg.end {
			w := a.as.Peek32(c + 4)
			sz := w &^ FlagMask
			if c == topC {
				if !visit(ChunkInfo{Addr: c, Size: sz, Free: true, IsTop: true}) {
					return nil
				}
				break // top is the last chunk of its segment
			}
			if sz < 8 {
				return fmt.Errorf("heap: walk: corrupt size %d at 0x%x", sz, c)
			}
			if c+uint64(sz) > seg.end {
				return fmt.Errorf("heap: walk: chunk 0x%x size %d overruns segment end 0x%x", c, sz, seg.end)
			}
			free := false
			next := c + uint64(sz)
			if next < seg.end {
				free = a.as.Peek32(next+4)&PrevInuse == 0
			}
			if !visit(ChunkInfo{Addr: c, Size: sz, Free: free}) {
				return nil
			}
			c = next
		}
	}
	return nil
}

// Check verifies the arena's structural invariants:
//
//  1. chunks tile each segment exactly, ending at the top chunk or a
//     fencepost;
//  2. no two adjacent free chunks (coalescing happened);
//  3. every free chunk's footer (next chunk's prev_size) equals its size;
//  4. every free chunk appears in exactly one bin, and that bin's size
//     range covers it;
//  5. bin lists are consistent circular doubly-linked lists;
//  6. a binned chunk carries a release tag exactly when its releasable
//     whole-page interior is non-empty, no other chunk carries one, and the
//     resident estimate is the sum of the tags.
//
// It uses uncharged reads and may be called at any point where the arena
// lock is conceptually held.
func (a *Arena) Check() error {
	// Collect bin membership, mapping each binned chunk to whether it has a
	// whole page inside (and so must carry a release tag).
	inBin := make(map[uint64]bool)
	for i := 2; i < NBins; i++ {
		p := a.binPseudo(i)
		prev := p
		c := uint64(a.as.Peek32(p + 8)) // fd
		steps := 0
		for c != p {
			if c == 0 {
				return fmt.Errorf("heap: bin %d: nil link after 0x%x", i, prev)
			}
			if steps++; steps > 1<<22 {
				return fmt.Errorf("heap: bin %d: unterminated list", i)
			}
			if got := uint64(a.as.Peek32(c + 12)); got != prev {
				return fmt.Errorf("heap: bin %d: chunk 0x%x bk=0x%x want 0x%x", i, c, got, prev)
			}
			if _, dup := inBin[c]; dup {
				return fmt.Errorf("heap: chunk 0x%x on two bin lists", c)
			}
			sz := a.as.Peek32(c+4) &^ FlagMask
			lo, hi := binRange(i)
			if sz < lo || sz >= hi {
				return fmt.Errorf("heap: bin %d holds size %d outside [%d,%d)", i, sz, lo, hi)
			}
			rlo, rhi := binReleasable(c, sz)
			inBin[c] = rhi > rlo
			prev = c
			c = uint64(a.as.Peek32(c + 8))
		}
	}

	// Walk segments checking tiling, coalescing, footers and membership.
	topC := uint64(a.as.Peek32(a.hdrBase + topOff))
	seenFree := make(map[uint64]bool)
	for _, seg := range a.segments {
		c := seg.start
		prevFree := false
		for c < seg.end {
			w := a.as.Peek32(c + 4)
			sz := w &^ FlagMask
			if c == topC {
				if prevFree {
					return fmt.Errorf("heap: free chunk adjacent to top at 0x%x (missed merge)", c)
				}
				break
			}
			if sz < 8 || c+uint64(sz) > seg.end {
				return fmt.Errorf("heap: bad chunk size %d at 0x%x", sz, c)
			}
			next := c + uint64(sz)
			isFence := sz == 8
			free := false
			if next < seg.end && !isFence {
				free = a.as.Peek32(next+4)&PrevInuse == 0
			}
			if free {
				if prevFree {
					return fmt.Errorf("heap: adjacent free chunks at 0x%x", c)
				}
				if footer := a.as.Peek32(next); footer != sz {
					return fmt.Errorf("heap: free chunk 0x%x footer %d != size %d", c, footer, sz)
				}
				if _, ok := inBin[c]; !ok {
					return fmt.Errorf("heap: free chunk 0x%x missing from bins", c)
				}
				seenFree[c] = true
			}
			prevFree = free
			c = next
		}
	}

	// Every binned chunk must have been seen free in a segment.
	for c := range inBin {
		if !seenFree[c] {
			return fmt.Errorf("heap: binned chunk 0x%x not found free in any segment", c)
		}
	}

	// The release bookkeeping must mirror the bins exactly: every binned
	// chunk with a whole page inside carries a tag, no other chunk does, and
	// the resident estimate is the sum of the tags.
	var wantResident uint64
	for c, tag := range a.binStamps {
		spansPage, ok := inBin[c]
		if !ok {
			return fmt.Errorf("heap: release tag for 0x%x which is not binned", c)
		}
		if !spansPage {
			return fmt.Errorf("heap: release tag for binned chunk 0x%x with no whole page inside", c)
		}
		wantResident += tag.resident
	}
	for c, spansPage := range inBin {
		if _, ok := a.binStamps[c]; spansPage && !ok {
			return fmt.Errorf("heap: page-spanning binned chunk 0x%x has no release tag", c)
		}
	}
	if a.binResident != wantResident {
		return fmt.Errorf("heap: binResident estimate %d != tag sum %d", a.binResident, wantResident)
	}
	return nil
}

// FreeBytes sums the sizes of free chunks including the top chunk; a
// fragmentation metric for tests and reports.
func (a *Arena) FreeBytes() uint64 {
	var total uint64
	a.Walk(func(ci ChunkInfo) bool {
		if ci.Free {
			total += uint64(ci.Size)
		}
		return true
	})
	return total
}

// ChunkCount returns (inUse, free) chunk counts, excluding top/fenceposts.
func (a *Arena) ChunkCount() (inUse, free int) {
	a.Walk(func(ci ChunkInfo) bool {
		if ci.IsTop || ci.Size == 8 {
			return true
		}
		if ci.Free {
			free++
		} else {
			inUse++
		}
		return true
	})
	return
}
