// Package heap implements the allocator core of the reproduction: a
// boundary-tag, binned heap arena in the style of Doug Lea's malloc 2.6.x as
// extended by Wolfram Gloger's ptmalloc — the allocator glibc 2.0/2.1
// shipped and the paper studies.
//
// Everything lives inside simulated memory (package vm): chunk headers,
// boundary tags, the 128 bin lists and the binmap are read and written
// through the address space's typed accessors, so every allocator operation
// pays simulated cache and page-fault costs exactly where the real one
// would.
//
// Alongside the arena the package provides Buddy, a non-blocking
// power-of-two buddy page allocator (packed per-level free bitmaps updated
// by CAS, coalesce-on-free, growth as the only locked path). It backs the
// lock-free allocator design's page tier, where block metadata stays out of
// simulated memory entirely — chunks carved from buddy blocks have no
// headers.
//
// # Chunk layout (32-bit, SIZE_SZ = 4, 8-byte granularity)
//
//	chunk-> +----------------------------------+
//	        | prev_size (valid if prev free)   | 4 bytes
//	        +----------------------------------+
//	        | size | A-unused | M | P          | 4 bytes
//	mem->   +----------------------------------+
//	        | user data...                     |
//	        +----------------------------------+
//	        | fd (if free)  at mem+0           |
//	        | bk (if free)  at mem+4           |
//	next->  | prev_size = size (if this free)  |
//
// P (PREV_INUSE) says whether the chunk before this header is allocated; M
// (IS_MMAPPED) marks chunks served by their own anonymous mapping. A 40-byte
// request becomes a 48-byte chunk, which is what makes benchmark 2's
// 127.6-pages-per-thread constant come out of the simulation unchanged.
package heap

import "fmt"

// Size and flag constants (32-bit layout, like the paper's machines).
const (
	SizeSz    = 4          // one size_t
	HeaderSz  = 2 * SizeSz // prev_size + size
	MinChunk  = 16         // smallest chunk: header + fd/bk
	AlignMask = 7          // 8-byte granularity

	PrevInuse = 0x1
	IsMmapped = 0x2
	FlagMask  = 0x7 // low bits carved out of size
)

// NBins is the number of bins, matching ptmalloc's av_ array.
const NBins = 128

// MmapThreshold is the request size at and above which malloc gives a
// request its own anonymous mapping (M_MMAP_THRESHOLD, the glibc default
// of 128 KB, the paper's "32 pages").
const MmapThreshold = 128 * 1024

// subArenaSize is the mapping budget of a non-main arena (ptmalloc's
// HEAP_MAX_SIZE region, 1 MB here): its first mapping is an eighth of it,
// each extension at least another eighth, and growth past it fails with
// ErrArenaFull.
const subArenaSize = 1 << 20

// Params are the tunable allocator parameters, the ones glibc exposes via
// mallopt(3) plus reproduction-specific switches.
type Params struct {
	// TrimThreshold: when the top chunk of the main arena exceeds this,
	// memory is returned to the system with a negative sbrk
	// (M_TRIM_THRESHOLD, default 128 KB).
	TrimThreshold uint32
	// Align is the address alignment of returned memory; 8 is the glibc
	// default, a cache line (32) reproduces the paper's "cache-aligned"
	// benchmark 3 variant at the cost of internal fragmentation. At a cache
	// line or more, package malloc's placement is line-aware too.
	Align uint32
	// RetrySbrkWithMmap enables the glibc >= 2.1.3 behaviour of falling back
	// to mmap when sbrk cannot grow past a library mapping (§3).
	RetrySbrkWithMmap bool
	// Trim enables free-time top trimming (ablation A5 disables it).
	Trim bool
}

// DefaultParams mirrors glibc 2.0/2.1 defaults.
func DefaultParams() Params {
	return Params{
		TrimThreshold:     128 * 1024,
		Align:             8,
		RetrySbrkWithMmap: true,
		Trim:              true,
	}
}

// Request2Size converts a user request to a chunk size under the given
// alignment, enforcing the minimum chunk and 8-byte granularity.
func (p *Params) Request2Size(req uint32) uint32 {
	align := p.Align
	if align < 8 {
		align = 8
	}
	sz := req + SizeSz // user data may overlap the next chunk's prev_size
	if sz < MinChunk {
		sz = MinChunk
	}
	sz = (sz + align - 1) &^ (align - 1)
	return sz
}

// BinIndex maps a chunk size to its bin, using ptmalloc's exact spacing:
// 8-byte-spaced small bins below 512 bytes, then geometrically wider bins.
func BinIndex(sz uint32) int {
	s := sz >> 9
	switch {
	case s == 0:
		return int(sz >> 3)
	case s <= 4:
		return int(56 + sz>>6)
	case s <= 20:
		return int(91 + sz>>9)
	case s <= 84:
		return int(110 + sz>>12)
	case s <= 340:
		return int(119 + sz>>15)
	case s <= 1364:
		return int(124 + sz>>18)
	default:
		return 126
	}
}

// IsSmallRequest reports whether sz falls in the exact-fit small bins.
func IsSmallRequest(sz uint32) bool { return sz < 512 }

// smallBinSize returns the chunk size served by small bin idx.
func smallBinSize(idx int) uint32 { return uint32(idx) << 3 }

// binRange describes the half-open chunk-size interval bin idx may hold;
// used by the integrity checker. The intervals follow BinIndex exactly,
// including the places where adjacent branches of the ptmalloc formula
// map into the same bin (120 and 124).
func binRange(idx int) (lo, hi uint32) {
	switch {
	case idx < 64:
		return uint32(idx) << 3, uint32(idx+1) << 3
	case idx <= 95:
		return uint32(idx-56) << 6, uint32(idx-55) << 6
	case idx <= 111:
		return uint32(idx-91) << 9, uint32(idx-90) << 9
	case idx <= 119:
		return uint32(idx-110) << 12, uint32(idx-109) << 12
	case idx == 120:
		return 40960, 65536 // joined by the >>12 and >>15 branches
	case idx <= 123:
		return uint32(idx-119) << 15, uint32(idx-118) << 15
	case idx == 124:
		return 163840, 262144 // joined by the >>15 and >>18 branches
	case idx == 125:
		return 262144, 524288
	case idx == 126:
		return 524288, ^uint32(0)
	default:
		return 0, ^uint32(0)
	}
}

// Errors surfaced to allocator users.
var (
	ErrNoMemory  = fmt.Errorf("heap: out of memory")
	ErrArenaFull = fmt.Errorf("heap: arena cannot grow")
	ErrBadFree   = fmt.Errorf("heap: invalid free")
)
