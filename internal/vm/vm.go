// Package vm simulates the virtual-memory subsystem the paper's allocator
// sits on: a 32-bit-style address space with a program image, a brk segment
// that cannot grow past the shared-library mapping (the sbrk limitation
// discussed in §3 of the paper), an anonymous-mmap area, per-thread stacks,
// and first-touch minor-page-fault accounting — the metric of benchmark 2.
//
// All allocator metadata and user data live in real bytes inside the
// simulated pages; chunk headers are read and written through the typed
// accessors below, which charge the machine's cache model per access and
// service page faults on first touch. Unmapping (munmap, negative sbrk)
// discards page contents and cache lines, so re-extension faults again,
// exactly as Linux behaves.
//
// # The page table
//
// Resident pages are found by arithmetic on the address, not through a
// lookup structure: a two-level radix table over the 32-bit space — a
// 1024-entry directory of 1024-entry leaves, each leaf allocated on first
// use — maps a page number to its record. The record holds everything the
// access path needs: the page's home node and its touched granules, found
// through a one-byte-per-granule slot index. A granule is exactly one
// 32-byte cache line (cache.LineSize): its bytes and the line's coherence
// directory entry (cache.Line). So one page walk — usually answered by the
// one-entry cache of the last page touched — and one slot load yield both
// the data and the line to charge; a hit is then settled by
// cache.Model.Hit without entering the full protocol. An access to one of
// the granules resolved most recently skips even that walk: the granule
// cache, a 256-entry table direct-mapped by granule number, remembers
// them, and every page eviction retires all its entries at once by
// advancing the table's generation. The table saves the host the walk and
// changes no charge.
//
// Only touched granules are stored: a granule never touched reads as zero,
// so a resident page costs the host memory of what the program wrote or
// charged on it, not 4 KB. This is demand paging one level down — most
// simulated pages are touched in a few lines (chunk headers, a thread's
// stack top). A 32-bit access may straddle two granules; like every load
// or store it is billed as one access, to the line of its address.
//
// Granules and page records come from per-address-space slabs and never
// move: a page names each of its granules by a 4-byte pool number, and
// evicting a page (munmap, sbrk shrink, ReleasePages) returns its record
// and granules to free lists that the next fault draws from, zeroed — data
// zero, line invalid in every cache. A warm fault allocates no host memory.
// A page ReleasePages gave back keeps a marker in its page-table entry, so
// its next touch is counted as a refault.
//
// A line's entry lives and dies with its page record. That drops exactly
// the lines of every unmapped or released range, because a line is only
// ever charged after its page is resident and every range this package
// drops is page-aligned: Munmap and ReleasePages align their ranges, and
// the heap moves the break in page multiples. Each address space owns its
// page records, so two processes sharing one cache model never generate
// coherence traffic against each other, even at identical addresses.
//
// The reclamation subsystem adds a weaker form of giving memory back:
// ReleasePages (madvise(MADV_DONTNEED) semantics) keeps a region mapped but
// drops its resident pages, which read as zero when next touched — at the
// page-fault cost, but without the fault path's exclusive lock. Residency is
// observable through Stats (PagesPresent, ResidentBytes, PagesReleased,
// Refaults), which is what experiment D3's footprint time series plots.
//
// # The locality model
//
// On a machine with more than one NUMA node (sim.Config.Nodes), every
// resident page has a home node. Pages of ordinary mappings are homed by
// first touch — the faulting thread's node, Linux's default placement —
// while a mapping created with MmapOnNode is bound to a node (mbind
// semantics) and its pages are homed there no matter who faults them in. A
// released page loses its home with its frame and is re-homed when it
// refaults. Three kinds of events are counted in
// Stats.RemoteAccesses/RemoteAccessCycles when they cross nodes, and
// charged the machine's Costs.RemoteAccess multiplier (a multiplier at or
// below 1 prices the interconnect as free — counted, nothing extra
// charged):
//
//   - first-touch faults and refaults against a page homed away from the
//     faulting thread's node (only possible for bound mappings);
//   - data-carrying fills that cross a node boundary: a memory-served miss
//     against a page homed on another node, or a cache-to-cache transfer
//     supplied by a CPU on another node (hits and upgrades stay local — no
//     data moved);
//   - reuse-cache hand-outs of a region whose pages are homed on another
//     node (the hand-out itself is cheap, but it is the event placement
//     policy can avoid, so it is counted and charged).
//
// The reuse cache remembers each parked region's home node and, when
// SetReuseNodeAffinity is on, prefers handing a caller a region homed on
// its own node — the vm half of the allocator's node-sharded placement.
// On a 1-node machine none of this machinery runs and every cost is
// exactly the flat-SMP model the paper calibrates.
package vm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// ErrNoMem is the typed ENOMEM analog: every commit-limit refusal and every
// injected mapping failure wraps it, so callers test errors.Is(err, ErrNoMem)
// regardless of which growth path hit the wall.
var ErrNoMem = errors.New("vm: cannot allocate memory")

// PageSize is the simulated page size. The paper's machines all used 4 KB
// pages; benchmark 2's 127.6-pages-per-thread constant depends on it.
const PageSize = 4096

// Standard 32-bit Linux-like layout constants.
const (
	TextBase  = 0x08048000
	DataBase  = 0x08100000 // brk starts here
	LibBase   = 0x40000000 // shared C library mapping: the sbrk barrier
	LibSize   = 0x00400000
	MmapBase  = LibBase + LibSize
	StackTop  = 0xC0000000
	StackSize = 128 * 1024 // per-thread stack reservation
)

// Kind classifies a virtual memory area.
type Kind int

const (
	KindText Kind = iota
	KindData
	KindBrk
	KindAnon
	KindLib
	KindStack
)

// VMA is one mapped region [Start, End). Node is the NUMA node the mapping
// is bound to (mbind semantics): pages fault in homed there regardless of
// the toucher. Node < 0 — the common case — means first-touch placement.
type VMA struct {
	Start, End uint64
	Kind       Kind
	Name       string
	Node       int
}

// Costs is the VM-level cycle cost model.
type Costs struct {
	Syscall    int64 // entering/leaving the kernel for sbrk/mmap/munmap
	KernelHold int64 // cycles the kernel lock is held per VM syscall
	PageFault  int64 // servicing one minor fault, refaults included
}

// DefaultCosts returns constants for a late-1990s x86 kernel.
func DefaultCosts() Costs {
	return Costs{Syscall: 700, KernelHold: 900, PageFault: 1500}
}

// Stats counts VM events for one address space.
type Stats struct {
	MinorFaults  uint64
	SbrkCalls    uint64
	SbrkFails    uint64
	SbrkGrow     uint64 // bytes
	SbrkShrink   uint64 // bytes
	MmapCalls    uint64
	MunmapCalls  uint64
	MappedBytes  uint64 // current anonymous+brk extent
	PeakMapped   uint64
	PagesPresent uint64
	// Page-residency counters for the reclamation subsystem. ResidentBytes
	// is PagesPresent scaled to bytes: the honest RSS of the space.
	ResidentBytes uint64
	MadviseCalls  uint64 // ReleasePages syscalls
	PagesReleased uint64 // pages handed back by ReleasePages (cumulative)
	Refaults      uint64 // faults on pages ReleasePages gave back (also MinorFaults)
	// Mmap-region reuse cache counters (zero while the cache is disabled).
	MmapReuses       uint64 // regions re-handed out without a syscall
	MmapReuseBytes   uint64 // cumulative bytes served from the cache
	MmapReuseParks   uint64 // regions parked instead of munmapped
	MmapReuseEvicts  uint64 // parked regions munmapped to honour the cap
	MmapReuseExpired uint64 // parked regions munmapped by the scavenger's age sweep
	MmapReuseParked  uint64 // bytes parked right now (still counted as RSS)
	// NUMA locality counters (all zero on a 1-node machine).
	RemoteAccesses     uint64 // cross-node charged events: faults, refaults, memory misses, reuse hand-outs
	RemoteAccessCycles uint64 // extra cycles those events paid over the local cost
	RemoteFaults       uint64 // subset of RemoteAccesses that were first-touch faults or refaults
	ReuseRemoteHands   uint64 // reuse-cache regions handed to a thread on another node
	// Cache fill-class counters: every data access the cache model classifies,
	// split by where the line came from. FillC2C — lines supplied dirty by
	// another CPU — is the coherence-transfer currency experiment D9 compares
	// placements in; reading it directly beats diffing raw cycle totals.
	FillLocal        uint64 // hits and upgrades: no data moved
	FillLocalCycles  uint64
	FillRemote       uint64 // misses served from memory (cold or clean)
	FillRemoteCycles uint64
	FillC2C          uint64 // cache-to-cache transfers from another CPU's dirty copy
	FillC2CCycles    uint64
	// NodeResidentBytes is the resident footprint broken down by home node
	// (nil on a 1-node machine, where ResidentBytes is the whole story).
	NodeResidentBytes []uint64
	// Commit-limit accounting (SetMemLimit). CommittedBytes is mapped bytes
	// minus released pages — the strict-overcommit Committed_AS analog that
	// SetMemLimit bounds. Tracked even with the limit off, so an unlimited
	// baseline run can report the peak a later limited run is set against.
	CommittedBytes uint64
	PeakCommitted  uint64
	CommitFails    uint64 // growth or recommit refusals under the limit
	InjectedFaults uint64 // mapping failures forced by SetFaultInjection
}

// Fault is panicked (and surfaced as a machine error) on an access outside
// any VMA: the simulated equivalent of SIGSEGV, which in this codebase
// always indicates an allocator bug.
type Fault struct {
	Space uint32
	Addr  uint64
	Op    string
}

func (f Fault) Error() string {
	return fmt.Sprintf("vm: segmentation fault: space %d %s 0x%x", f.Space, f.Op, f.Addr)
}

// OOMFault is panicked when the commit limit refuses to re-commit a released
// page on touch — the one failure the fault path itself can raise. The data
// accessors have no error returns (a load does not fail on real hardware, the
// process does), so like Fault it unwinds to the simulation engine and
// surfaces as a machine error; errors.Is(err, ErrNoMem) identifies it there.
type OOMFault struct {
	Space uint32
	Addr  uint64
	Limit uint64
}

func (f OOMFault) Error() string {
	return fmt.Sprintf("vm: cannot commit page at 0x%x: space %d over its %d-byte commit limit", f.Addr, f.Space, f.Limit)
}

// Unwrap lets errors.Is(err, ErrNoMem) see through a recovered OOMFault.
func (f OOMFault) Unwrap() error { return ErrNoMem }

// AddressSpace is one simulated process image.
type AddressSpace struct {
	ID    uint32
	mach  *sim.Machine
	cache *cache.Model
	costs Costs

	vmas []VMA // sorted by Start, non-overlapping
	brk  uint64

	// dir is the page table (see the package comment); resident counts
	// the records in it, and pool recycles them and their granules.
	dir      [dirSize]*pageLeaf
	resident uint64
	pool     pool
	// numaOn caches whether the machine has more than one node (events are
	// counted whenever they cross nodes); remoteMult caches the cross-node
	// multiplier that prices them (1 = free interconnect, nothing extra
	// charged but still counted).
	numaOn     bool
	remoteMult float64
	// reuseNodeAffinity makes MmapFromReuse prefer regions homed on the
	// caller's node (the node-sharded allocator turns it on).
	reuseNodeAffinity bool
	// one-entry page lookup cache for the page walks the granule cache
	// misses: allocator loops touch few pages.
	lastIdx  uint64
	lastPage *page
	// grans is the granule cache: the granules access resolved most
	// recently, direct-mapped by granule number (address / granuleSize).
	// An entry is valid while its key's high 32 bits equal gen's, the
	// cache's generation. Every eviction advances gen by genStep and so
	// retires every entry at once: the evicted page's granules may be
	// recycled into another page.
	grans [granCacheSize]granEntry
	gen   uint64

	// mmLock serializes faults and mapping changes among threads of this
	// address space (mmap_sem). kernelLock models the kernel-side lock for
	// VM syscalls; it may be shared between address spaces to reproduce the
	// pre-2.3.x global-kernel-lock behaviour the authors patched.
	mmLock     *sim.Mutex
	kernelLock *sim.Mutex

	mmapHint  uint64
	stackHint uint64

	// Mmap-region reuse cache: munmapped above-threshold regions park on a
	// bounded list (with their pages and cache lines intact) and are
	// re-handed out without a syscall or fresh first-touch faults. Disabled
	// until SetMmapReuse is called with a non-zero cap. reuse holds the
	// parked regions in park order, oldest first.
	reuseCap    uint64 // max parked bytes; 0 disables the cache
	reuseParked uint64
	reuse       []reuseRegion
	// parkDisabled suspends parking new regions (MunmapReuse refuses, the
	// caller munmaps for real) while leaving already-parked regions
	// available for lookup — the allocator's under-pressure degradation.
	parkDisabled bool

	// memLimit bounds committed (mapped-minus-released) bytes when > 0: the
	// RLIMIT_AS / cgroup memory.max analog. committed is tracked either way.
	memLimit  uint64
	committed uint64
	// injectRNG, when non-nil, fails each growth syscall with probability
	// injectProb (SetFaultInjection).
	injectProb float64
	injectRNG  *xrand.RNG

	stats Stats
}

// Page-table geometry: 2^20 pages of a 32-bit space, split into a
// directory of dirSize leaves of leafSize entries each.
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirSize  = 1 << (32 - 12 - leafBits)
)

// Granule geometry: a page is stored as the granules touched on it, and a
// granule is one cache line.
const (
	granuleShift = cache.LineShift
	granuleSize  = cache.LineSize
	pageGranules = PageSize >> granuleShift
)

// Granule-cache geometry. The cache holds granCacheSize entries, two pages'
// worth of lines: allocator loops re-touch a few hundred lines — chunk
// headers, free-list links, a thread's stack top — and a larger table
// bought no host time. Only addresses below spaceLimit, the 32-bit space
// the page table covers, are looked up, so a key's granule number fits in
// its low 32 bits and never reaches the generation above them.
const (
	granCacheSize = 256
	spaceLimit    = 1 << 32
	genStep       = 1 << 32
)

// granEntry is one granule-cache entry: key is the cache generation when
// the entry was filled, in the high 32 bits, or'd with the granule number.
type granEntry struct {
	key uint64
	g   *granule
}

// pageLeaf is one second-level node of the page table. An entry is nil for
// a page never touched (or unmapped), released for a page ReleasePages
// handed back while its mapping stayed, and the page's record otherwise.
type pageLeaf [leafSize]*page

// released is the page-table entry of a released page: not resident, and
// its next touch is a refault. It is a marker only; nothing reads or writes
// the record it points to.
var released = new(page)

// page is one resident page's record.
type page struct {
	// node is the page's home node (first touch or VMA binding; always 0
	// on a 1-node machine). See the package comment's locality model.
	node int8
	// slot maps a granule's index within the page to 1 + its position in
	// grans, 0 for a granule never touched. A page has 128 granules, so a
	// slot fits in a byte. grans holds the pool numbers of the touched
	// granules in touch order; a granule never moves once drawn.
	slot  [pageGranules]uint8
	grans []uint32
}

// granule is one touched cache line of a page: its 32 bytes and its
// directory entry.
type granule struct {
	data [granuleSize]byte
	line cache.Line
}

// granule returns granule i of page p, drawing a zero one from the pool
// on first touch.
func (as *AddressSpace) granule(p *page, i uint64) *granule {
	if g := as.peek(p, i); g != nil {
		return g
	}
	return as.touch(p, i)
}

// touch adds a zero granule i to page p, which has none, and returns it.
func (as *AddressSpace) touch(p *page, i uint64) *granule {
	r := as.pool.granule()
	p.grans = append(p.grans, r)
	p.slot[i] = uint8(len(p.grans))
	return as.pool.at(r)
}

// peek returns granule i of page p, or nil when it was never touched.
func (as *AddressSpace) peek(p *page, i uint64) *granule {
	if s := p.slot[i]; s != 0 {
		return as.pool.at(p.grans[s-1])
	}
	return nil
}

// load32 reads the little-endian word at byte offset o of page p (o+4 <=
// PageSize), which may straddle two granules. Untouched bytes read as zero.
func (as *AddressSpace) load32(p *page, o uint64) uint32 {
	if o%granuleSize <= granuleSize-4 {
		if g := as.peek(p, o>>granuleShift); g != nil {
			return binary.LittleEndian.Uint32(g.data[o%granuleSize:])
		}
		return 0
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		if g := as.peek(p, (o+i)>>granuleShift); g != nil {
			v |= uint32(g.data[(o+i)%granuleSize]) << (8 * i)
		}
	}
	return v
}

// store32 writes the little-endian word at byte offset o of page p (o+4
// <= PageSize) when it straddles two granules, materializing both.
func (as *AddressSpace) store32(p *page, o uint64, v uint32) {
	for i := uint64(0); i < 4; i++ {
		as.granule(p, (o+i)>>granuleShift).data[(o+i)%granuleSize] = byte(v >> (8 * i))
	}
}

// entry returns page number idx's page-table entry: nil, released, or a
// resident record.
func (as *AddressSpace) entry(idx uint64) *page {
	if idx >= dirSize*leafSize {
		return nil
	}
	leaf := as.dir[idx>>leafBits]
	if leaf == nil {
		return nil
	}
	return leaf[idx&(leafSize-1)]
}

// lookup returns the resident record of page number idx, or nil.
func (as *AddressSpace) lookup(idx uint64) *page {
	if p := as.entry(idx); p != released {
		return p
	}
	return nil
}

// install makes p the record of page number idx, allocating the leaf on
// first use.
func (as *AddressSpace) install(idx uint64, p *page) {
	leaf := as.dir[idx>>leafBits]
	if leaf == nil {
		leaf = new(pageLeaf)
		as.dir[idx>>leafBits] = leaf
	}
	leaf[idx&(leafSize-1)] = p
	as.resident++
}

// evict drops page number idx's record — granules, home node and cache
// lines together — to the pool, leaves mark (nil or released) in its
// entry, and reports whether the page was resident. A page that was not
// resident keeps a released entry only when mark is released too. It is
// the one place a granule leaves its page, so it is the one place that
// retires the granule cache.
func (as *AddressSpace) evict(idx uint64, mark *page) bool {
	if idx >= dirSize*leafSize {
		return false
	}
	leaf := as.dir[idx>>leafBits]
	if leaf == nil {
		return false
	}
	e := &leaf[idx&(leafSize-1)]
	p := *e
	if p == nil || p == released {
		if mark == nil {
			*e = nil
		}
		return false
	}
	*e = mark
	as.resident--
	as.pool.put(p)
	as.lastPage = nil
	// Retire every granule-cache entry. When the generation wraps, entries
	// of an old generation would match again, so the table starts over.
	as.gen += genStep
	if as.gen == 0 {
		as.grans = [granCacheSize]granEntry{}
		as.gen = genStep
	}
	return true
}

// reuseRegion is one parked anonymous mapping awaiting reuse.
type reuseRegion struct {
	addr, length uint64
	parkedAt     sim.Time // park time, for the scavenger's age sweep
	node         int8     // home node of the region's resident pages
}

// Option configures an AddressSpace.
type Option func(*AddressSpace)

// WithKernelLock makes the space contend on a shared kernel lock for VM
// syscalls (ablation A6); by default each space has a private one.
func WithKernelLock(mu *sim.Mutex) Option {
	return func(as *AddressSpace) { as.kernelLock = mu }
}

// WithCosts overrides the VM cost model.
func WithCosts(c Costs) Option {
	return func(as *AddressSpace) { as.costs = c }
}

// New creates an address space with the standard layout on machine m,
// charging cache traffic to model.
func New(id uint32, m *sim.Machine, model *cache.Model, opts ...Option) *AddressSpace {
	as := &AddressSpace{
		ID:         id,
		mach:       m,
		cache:      model,
		costs:      DefaultCosts(),
		brk:        DataBase,
		gen:        genStep, // a zero entry's key never matches
		numaOn:     m.Nodes() > 1,
		remoteMult: m.RemoteMultiplier(),
		mmapHint:   MmapBase,
		stackHint:  StackTop,
	}
	as.vmas = []VMA{
		{Start: TextBase, End: TextBase + 0x60000, Kind: KindText, Name: "text", Node: -1},
		{Start: DataBase, End: DataBase, Kind: KindBrk, Name: "brk", Node: -1},
		{Start: LibBase, End: LibBase + LibSize, Kind: KindLib, Name: "libc.so", Node: -1},
	}
	for _, o := range opts {
		o(as)
	}
	as.mmLock = m.NewMutex(fmt.Sprintf("mm.%d", id))
	if as.kernelLock == nil {
		as.kernelLock = m.NewMutex(fmt.Sprintf("kernel.%d", id))
	}
	return as
}

// Machine returns the machine this space belongs to.
func (as *AddressSpace) Machine() *sim.Machine { return as.mach }

// Cache returns the cache model shared by the machine.
func (as *AddressSpace) Cache() *cache.Model { return as.cache }

// Brk returns the current program break.
func (as *AddressSpace) Brk() uint64 { return as.brk }

// ResidentBytesIn counts the resident bytes inside [start, end): pages the
// program has touched and not released back to the kernel. It is a Go-side
// bookkeeping walk (uncharged) for observability — the per-arena
// external-fragmentation gauge compares it against live chunk bytes.
func (as *AddressSpace) ResidentBytesIn(start, end uint64) uint64 {
	if end <= start {
		return 0
	}
	var n uint64
	for p := start / PageSize; p <= (end-1)/PageSize; p++ {
		if as.lookup(p) != nil {
			n += PageSize
		}
	}
	return n
}

// Stats returns a snapshot of the VM statistics.
func (as *AddressSpace) Stats() Stats {
	s := as.stats
	s.PagesPresent = as.resident
	s.ResidentBytes = s.PagesPresent * PageSize
	s.MmapReuseParked = as.reuseParked
	s.CommittedBytes = as.committed
	if as.numa() {
		s.NodeResidentBytes = make([]uint64, as.mach.Nodes())
		for _, leaf := range as.dir {
			if leaf == nil {
				continue
			}
			for _, p := range leaf {
				if p != nil && p != released {
					s.NodeResidentBytes[p.node] += PageSize
				}
			}
		}
	}
	return s
}

// numa reports whether the machine has more than one node, i.e. whether the
// locality books are being kept at all.
func (as *AddressSpace) numa() bool { return as.numaOn }

// SetReuseNodeAffinity toggles the reuse cache's local-node preference:
// when on, MmapFromReuse serves a region homed on the caller's node if the
// cache holds one of the length. Off (the default) keeps the pure-LIFO
// node-blind behaviour; remote hand-outs are charged and counted either way.
func (as *AddressSpace) SetReuseNodeAffinity(on bool) {
	as.reuseNodeAffinity = on
}

// chargeRemote applies the cross-node multiplier to a base cost already
// charged at the local rate: the extra cycles are charged to t and the
// event is counted. fault marks first-touch/refault events for the
// RemoteFaults breakdown.
func (as *AddressSpace) chargeRemote(t *sim.Thread, base int64, fault bool) {
	extra := int64(float64(base) * (as.remoteMult - 1))
	if extra > 0 {
		t.Charge(sim.Time(extra))
	}
	as.stats.RemoteAccesses++
	as.stats.RemoteAccessCycles += uint64(extra)
	if fault {
		as.stats.RemoteFaults++
	}
}

// reuseWork is the cycles one reuse-cache park or lookup costs.
const reuseWork = 30

// SetMmapReuse enables the mmap-region reuse cache with the given byte cap
// (0 disables it). Parked regions keep their pages resident, so the cap is
// the honest bound on the extra RSS the cache may hold.
func (as *AddressSpace) SetMmapReuse(capBytes uint64) {
	as.reuseCap = capBytes
}

// SetReuseParkingDisabled suspends (or resumes) parking regions on the reuse
// cache. While disabled MunmapReuse refuses every park, so above-threshold
// frees munmap for real; regions already parked stay available to
// MmapFromReuse and to eviction. The allocator flips this under memory
// pressure: parked regions hold resident pages that count against the
// commit limit.
func (as *AddressSpace) SetReuseParkingDisabled(disabled bool) {
	as.parkDisabled = disabled
}

// SetMemLimit bounds the space's committed bytes (mapped extent minus
// released pages): the RLIMIT_AS / cgroup memory.max analog. 0 removes the
// limit. Growth syscalls that would cross it fail with an error wrapping
// ErrNoMem; re-committing a released page past it panics OOMFault (the data
// path cannot return errors). Thread stacks are charged but never refused,
// like a separate stack rlimit — a spawn failure would be unrecoverable.
func (as *AddressSpace) SetMemLimit(bytes uint64) {
	as.memLimit = bytes
}

// MemLimit returns the current commit limit (0 = unlimited).
func (as *AddressSpace) MemLimit() uint64 { return as.memLimit }

// SetFaultInjection fails each later growth syscall (sbrk growth and mmap)
// with probability prob; 0 disables injection. The draws come from a
// dedicated PCG stream seeded by seed and the space's ID — independent of
// the machine's scheduling randomness, so adding injection never perturbs
// a run's other draws, and two spaces with the same ID and arguments fail
// identically.
func (as *AddressSpace) SetFaultInjection(prob float64, seed uint64) {
	as.injectProb, as.injectRNG = prob, nil
	if prob > 0 {
		as.injectRNG = xrand.New(seed, uint64(as.ID))
	}
}

// mayGrow vets a growth syscall of delta bytes against fault injection and
// the commit limit, in that order. The caller charges syscall time first:
// a refused call still entered the kernel.
func (as *AddressSpace) mayGrow(delta uint64) error {
	if as.injectRNG != nil && as.injectRNG.Float64() < as.injectProb {
		as.stats.InjectedFaults++
		return fmt.Errorf("injected fault: %w", ErrNoMem)
	}
	if as.memLimit > 0 && as.committed+delta > as.memLimit {
		as.stats.CommitFails++
		return fmt.Errorf("commit limit %d reached (%d committed, %d more wanted): %w",
			as.memLimit, as.committed, delta, ErrNoMem)
	}
	return nil
}

// commitCharge adds delta bytes to the committed meter (the caller has
// already vetted the growth where refusal is possible).
func (as *AddressSpace) commitCharge(delta uint64) {
	as.committed += delta
	if as.committed > as.stats.PeakCommitted {
		as.stats.PeakCommitted = as.committed
	}
}

// commitCredit subtracts released or unmapped bytes from the meter.
func (as *AddressSpace) commitCredit(delta uint64) {
	if delta > as.committed {
		as.committed = 0
		return
	}
	as.committed -= delta
}

// releasedBytesIn counts pages of [lo, hi) that ReleasePages handed back:
// the bytes a munmap of the range must NOT credit twice.
func (as *AddressSpace) releasedBytesIn(lo, hi uint64) uint64 {
	n := uint64(0)
	for p := pageFloor(lo); p < hi; p += PageSize {
		if as.entry(p/PageSize) == released {
			n += PageSize
		}
	}
	return n
}

// VMAs returns a copy of the current mapping list.
func (as *AddressSpace) VMAs() []VMA {
	return append([]VMA(nil), as.vmas...)
}

// findVMA returns the index of the VMA containing addr, or -1.
func (as *AddressSpace) findVMA(addr uint64) int {
	lo, hi := 0, len(as.vmas)
	for lo < hi {
		mid := (lo + hi) / 2
		v := as.vmas[mid]
		switch {
		case addr < v.Start:
			hi = mid
		case addr >= v.End:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// mapped reports whether addr lies in a VMA (the brk VMA covers
// [DataBase, brk)).
func (as *AddressSpace) mapped(addr uint64) bool {
	return as.findVMA(addr) >= 0
}

// insertVMA adds a region, keeping the list sorted. It panics on overlap:
// mapping decisions are made by this package, so overlap is internal error.
func (as *AddressSpace) insertVMA(v VMA) {
	i := 0
	for i < len(as.vmas) && as.vmas[i].Start < v.Start {
		i++
	}
	if i > 0 && as.vmas[i-1].End > v.Start {
		panic(fmt.Sprintf("vm: overlapping mapping %x-%x vs %x-%x", v.Start, v.End, as.vmas[i-1].Start, as.vmas[i-1].End))
	}
	if i < len(as.vmas) && v.End > as.vmas[i].Start {
		panic(fmt.Sprintf("vm: overlapping mapping %x-%x vs %x-%x", v.Start, v.End, as.vmas[i].Start, as.vmas[i].End))
	}
	as.vmas = append(as.vmas, VMA{})
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

// vmSyscall charges the cost of entering a VM syscall and holding the
// kernel lock. Contention on this lock is what the authors' sbrk kernel
// patch removed.
func (as *AddressSpace) vmSyscall(t *sim.Thread) {
	t.Charge(sim.Time(as.costs.Syscall))
	t.Lock(as.kernelLock)
	t.Charge(sim.Time(as.costs.KernelHold))
	t.Unlock(as.kernelLock)
}

// Sbrk grows or shrinks the brk segment by delta bytes and returns the old
// break. Growth fails (like the real sbrk) when it would run into the next
// mapping — the shared C library in the standard layout.
func (as *AddressSpace) Sbrk(t *sim.Thread, delta int64) (uint64, error) {
	as.vmSyscall(t)
	as.stats.SbrkCalls++
	old := as.brk
	switch {
	case delta == 0:
		return old, nil
	case delta > 0:
		newBrk := as.brk + uint64(delta)
		// The next VMA above the brk area bounds growth.
		for _, v := range as.vmas {
			if v.Kind != KindBrk && v.Start >= DataBase && newBrk > v.Start {
				as.stats.SbrkFails++
				return 0, fmt.Errorf("vm: sbrk(%d) would collide with %s at 0x%x", delta, v.Name, v.Start)
			}
		}
		if err := as.mayGrow(uint64(delta)); err != nil {
			as.stats.SbrkFails++
			return 0, fmt.Errorf("vm: sbrk(%d): %w", delta, err)
		}
		as.brk = newBrk
		as.stats.SbrkGrow += uint64(delta)
		as.setBrkVMA()
		as.accountMapped(int64(delta))
		as.commitCharge(uint64(delta))
		return old, nil
	default:
		shrink := uint64(-delta)
		if shrink > as.brk-DataBase {
			as.stats.SbrkFails++
			return 0, fmt.Errorf("vm: sbrk(%d) below data base", delta)
		}
		newBrk := as.brk - shrink
		dropLo := pageFloor(newBrk + PageSize - 1)
		// Pages already handed back by ReleasePages were credited then; the
		// shrink credits only what was still committed.
		as.commitCredit(shrink - as.releasedBytesIn(dropLo, as.brk))
		as.dropPages(dropLo, as.brk)
		as.brk = newBrk
		as.stats.SbrkShrink += shrink
		as.setBrkVMA()
		as.accountMapped(delta)
		return old, nil
	}
}

func (as *AddressSpace) setBrkVMA() {
	for i := range as.vmas {
		if as.vmas[i].Kind == KindBrk {
			as.vmas[i].End = as.brk
			return
		}
	}
}

func (as *AddressSpace) accountMapped(delta int64) {
	as.stats.MappedBytes = uint64(int64(as.stats.MappedBytes) + delta)
	if as.stats.MappedBytes > as.stats.PeakMapped {
		as.stats.PeakMapped = as.stats.MappedBytes
	}
}

// Mmap creates an anonymous mapping of length bytes (rounded to pages) and
// returns its address, with the default first-touch page placement. The
// search is first-fit from the mmap base, like the 2.2 kernel's
// get_unmapped_area.
func (as *AddressSpace) Mmap(t *sim.Thread, length uint64, name string) (uint64, error) {
	return as.MmapOnNode(t, length, name, -1)
}

// MmapOnNode is Mmap with an explicit home node (mbind semantics): pages of
// the mapping fault in homed on node regardless of which thread touches
// them, so a thread on another node pays the remote rate. node < 0 keeps
// first-touch placement; out-of-range nodes are clamped.
func (as *AddressSpace) MmapOnNode(t *sim.Thread, length uint64, name string, node int) (uint64, error) {
	if length == 0 {
		return 0, fmt.Errorf("vm: mmap of zero length")
	}
	if node >= as.mach.Nodes() {
		node = as.mach.Nodes() - 1
	}
	as.vmSyscall(t)
	as.stats.MmapCalls++
	length = pageCeil(length)
	addr := as.findFree(length)
	if addr == 0 {
		return 0, fmt.Errorf("vm: mmap(%d): address space exhausted", length)
	}
	if err := as.mayGrow(length); err != nil {
		return 0, fmt.Errorf("vm: mmap(%d): %w", length, err)
	}
	as.insertVMA(VMA{Start: addr, End: addr + length, Kind: KindAnon, Name: name, Node: node})
	as.accountMapped(int64(length))
	as.commitCharge(length)
	return addr, nil
}

// findFree locates a gap of the given size in the mmap region.
func (as *AddressSpace) findFree(length uint64) uint64 {
	limit := as.stackHint - 64*PageSize // keep clear of stacks
	addr := as.mmapHint
	for addr+length <= limit {
		conflict := false
		for _, v := range as.vmas {
			if addr < v.End && v.Start < addr+length {
				addr = pageCeil(v.End)
				conflict = true
				break
			}
		}
		if !conflict {
			return addr
		}
	}
	return 0
}

// Munmap removes [addr, addr+length) from the space, discarding pages and
// cache lines. The range must exactly cover parts of existing anonymous or
// stack mappings.
func (as *AddressSpace) Munmap(t *sim.Thread, addr, length uint64) error {
	if addr%PageSize != 0 || length == 0 {
		return fmt.Errorf("vm: munmap(0x%x, %d): bad alignment", addr, length)
	}
	as.vmSyscall(t)
	as.stats.MunmapCalls++
	length = pageCeil(length)
	end := addr + length
	removed := uint64(0)
	// Edit the list in place, keeping the pieces outside [addr, end).
	for i := 0; i < len(as.vmas); i++ {
		v := as.vmas[i]
		if v.End <= addr || v.Start >= end || (v.Kind != KindAnon && v.Kind != KindStack) {
			continue
		}
		removed += minU64(v.End, end) - maxU64(v.Start, addr)
		switch {
		case v.Start < addr && v.End > end:
			as.vmas = slices.Insert(as.vmas, i+1, VMA{Start: end, End: v.End, Kind: v.Kind, Name: v.Name, Node: v.Node})
			as.vmas[i].End = addr
			i++
		case v.Start < addr:
			as.vmas[i].End = addr
		case v.End > end:
			as.vmas[i].Start = end
		default:
			as.vmas = slices.Delete(as.vmas, i, i+1)
			i--
		}
	}
	if removed == 0 {
		return fmt.Errorf("vm: munmap(0x%x, %d): no mapping there", addr, length)
	}
	// Released pages in the range were credited by ReleasePages already.
	as.commitCredit(removed - as.releasedBytesIn(addr, end))
	as.dropPages(addr, end)
	as.accountMapped(-int64(removed))
	return nil
}

// MmapFromReuse tries to serve an anonymous mapping of length bytes from the
// reuse cache. On a hit the region is returned with its pages still present,
// so no syscall happens and later accesses do not re-fault; its stale
// contents are NOT zeroed (callers that need calloc semantics must clear).
// A hit matches the exact page-rounded length, keeping the accounting
// honest: a hit reuses precisely what a park put in. Among the regions of
// that length the newest wins (LIFO): it has the warmest pages and cache
// lines.
//
// On a multi-node machine a hand-out of a region homed on another node is a
// remote-access event: it is counted, and the reuse work is charged at the
// remote rate (the touches that follow pay their own remote miss costs).
// With SetReuseNodeAffinity on, the newest region of the length homed on the
// caller's node wins, so local warmth beats pure LIFO order; without one
// the newest of the length is still served. That fallback beats a fresh
// mmap — the remote surcharge on a region's touches is cheaper than
// first-touch-faulting every page of a new mapping — it is just recorded and
// charged as the remote hand-out it is.
func (as *AddressSpace) MmapFromReuse(t *sim.Thread, length uint64) (uint64, bool) {
	if as.reuseCap == 0 || length == 0 {
		return 0, false
	}
	t.Charge(reuseWork)
	length = pageCeil(length)
	affinity := as.reuseNodeAffinity && as.numa()
	pick := -1
	for i := len(as.reuse) - 1; i >= 0; i-- {
		if as.reuse[i].length != length {
			continue
		}
		if pick < 0 {
			pick = i
		}
		if !affinity || int(as.reuse[i].node) == t.Node() {
			pick = i
			break
		}
	}
	if pick < 0 {
		return 0, false
	}
	r := as.reuse[pick]
	as.reuse = slices.Delete(as.reuse, pick, pick+1)
	as.reuseParked -= r.length
	as.stats.MmapReuses++
	as.stats.MmapReuseBytes += r.length
	if as.numa() && int(r.node) != t.Node() {
		as.stats.ReuseRemoteHands++
		as.chargeRemote(t, reuseWork, false)
	}
	return r.addr, true
}

// MunmapReuse parks [addr, addr+length) on the reuse cache instead of
// unmapping it, evicting the oldest parked regions (real munmaps) when the
// cap would be exceeded. Returns false — leaving the caller to munmap — when
// the cache is disabled, parking is suspended, or the region alone exceeds
// the cap. A non-nil error means an eviction's munmap failed: the region was
// NOT parked and the caller still owns it.
func (as *AddressSpace) MunmapReuse(t *sim.Thread, addr, length uint64) (bool, error) {
	if as.reuseCap == 0 || length == 0 || as.parkDisabled {
		return false, nil
	}
	length = pageCeil(length)
	if length > as.reuseCap {
		return false, nil
	}
	t.Charge(reuseWork)
	for as.reuseParked+length > as.reuseCap && len(as.reuse) > 0 {
		as.stats.MmapReuseEvicts++
		if err := as.unparkOldest(t); err != nil {
			return false, fmt.Errorf("vm: evicting parked reuse region: %w", err)
		}
	}
	// The region's home is where its resident pages live: the home of its
	// first page (the one its owner always touched), falling back to the
	// parker's node for a region that was never touched at all.
	node := int8(0)
	if as.numa() {
		if p := as.lookup(addr / PageSize); p != nil {
			node = p.node
		} else {
			node = int8(t.Node())
		}
	}
	as.reuse = append(as.reuse, reuseRegion{addr: addr, length: length, parkedAt: t.Now(), node: node})
	as.reuseParked += length
	as.stats.MmapReuseParks++
	return true, nil
}

// unparkOldest takes the least recently parked region off the cache and
// munmaps it. Eviction is a recovery path under a commit limit, so a munmap
// failure is returned, not panicked: the region is off the cache books
// either way.
func (as *AddressSpace) unparkOldest(t *sim.Thread) error {
	r := as.reuse[0]
	as.reuse = slices.Delete(as.reuse, 0, 1)
	as.reuseParked -= r.length
	return as.Munmap(t, r.addr, r.length)
}

// EvictReuseBefore munmaps every parked reuse region whose park time is
// earlier than cutoff — the scavenger's age sweep over the reuse tier.
// Regions are evicted oldest-first, so the sweep is deterministic. Returns
// the regions and bytes released before any error stopped the sweep.
func (as *AddressSpace) EvictReuseBefore(t *sim.Thread, cutoff sim.Time) (regions, bytes uint64, err error) {
	for len(as.reuse) > 0 && as.reuse[0].parkedAt < cutoff {
		length := as.reuse[0].length
		as.stats.MmapReuseExpired++
		if err := as.unparkOldest(t); err != nil {
			return regions, bytes, fmt.Errorf("vm: expiring parked reuse region: %w", err)
		}
		regions++
		bytes += length
	}
	return regions, bytes, nil
}

// ReleasePages hands the resident pages of [addr, addr+length) back to the
// kernel without unmapping them — madvise(MADV_DONTNEED) semantics. The
// region stays mapped; its pages become non-resident and read as zero when
// next touched, at which point the toucher pays a refault. Partial
// pages at either end are left alone (only whole pages inside the range are
// released), so callers may pass unaligned chunk bounds. Returns the number
// of bytes released.
func (as *AddressSpace) ReleasePages(t *sim.Thread, addr, length uint64) uint64 {
	lo := pageCeil(addr)
	hi := pageFloor(addr + length)
	if hi <= lo {
		return 0
	}
	// A caller sweeping the same ranges epoch after epoch (the scavenger's
	// trim and binned-release stages) must not pay a syscall for an
	// already-released range: check residency first — a Go-side read, like
	// the allocator consulting its own books before deciding to call
	// madvise.
	resident := false
	for p := lo; p < hi; p += PageSize {
		if !as.mapped(p) {
			panic(Fault{Space: as.ID, Addr: p, Op: "release-unmapped"})
		}
		if as.lookup(p/PageSize) != nil {
			resident = true
			break
		}
	}
	if !resident {
		return 0
	}
	as.vmSyscall(t)
	as.stats.MadviseCalls++
	n := uint64(0)
	for p := lo; p < hi; p += PageSize {
		// The frame goes with its home node and cache lines: a refault
		// re-homes it and starts every line cold. A page never touched or
		// already released has nothing resident.
		if as.evict(p/PageSize, released) {
			n += PageSize
		}
	}
	as.stats.PagesReleased += n / PageSize
	// The kernel may hand the frames to someone else: they stop counting
	// against the commit limit until a touch re-commits them.
	as.commitCredit(n)
	return n
}

// dropPages discards backing pages and cache lines for [lo, hi), and
// forgets which of its pages were released.
func (as *AddressSpace) dropPages(lo, hi uint64) {
	if hi <= lo {
		return
	}
	for p := pageFloor(lo); p < hi; p += PageSize {
		as.evict(p/PageSize, nil)
	}
}

// AllocStack reserves a stack VMA for a new thread and touches its top
// page, producing the one minor fault per pthread_create that benchmark 2's
// predictor charges per round.
func (as *AddressSpace) AllocStack(t *sim.Thread, name string) (uint64, error) {
	as.vmSyscall(t)
	as.stats.MmapCalls++
	top := as.stackHint
	base := top - StackSize
	as.stackHint = base - PageSize // guard gap
	as.insertVMA(VMA{Start: base, End: top, Kind: KindStack, Name: name, Node: -1})
	as.accountMapped(StackSize)
	// Stacks charge the commit meter but are never refused (see SetMemLimit).
	as.commitCharge(StackSize)
	// Stacks grow down: first touch hits the top page.
	as.Write64(t, top-8, 0)
	return top, nil
}

// page returns the record of the page holding addr, faulting it in on
// first touch, and makes it the one-entry cache's page. access checks that
// cache before calling it.
func (as *AddressSpace) page(t *sim.Thread, addr uint64, op string) *page {
	idx := addr / PageSize
	p := as.entry(idx)
	if p == nil || p == released {
		if !as.mapped(addr) {
			panic(Fault{Space: as.ID, Addr: addr, Op: op})
		}
		// Minor fault: serialize on the address-space lock, charge service
		// time, and install a zero page — an empty record from the pool,
		// whose untouched granules read as zero. A page ReleasePages gave
		// back (a released entry) is counted separately as a refault, but
		// it is still a minor fault. Refaults
		// are serviced without the exclusive lock: the VMA tree is unchanged
		// (do_anonymous_page runs with mmap_sem held shared, and the fresh
		// frame is zeroed outside the page-table lock), so concurrent
		// threads refaulting a released range after an idle phase do not
		// queue behind one another the way the first-touch path — whose
		// costs the paper's benchmarks calibrate and which is deliberately
		// left on the exclusive-lock simplification for reproduction
		// stability — models. The asymmetry
		// is intentional and applies even though both paths charge the
		// PageFault cost: what distinguishes them is release history, which
		// only reclamation-enabled configurations ever create.
		// The page's home node: the VMA binding when there is one, else the
		// faulting thread's node — Linux's first-touch placement. A fault a
		// binding forces onto another node pays the remote rate: the frame is
		// allocated and zeroed across the interconnect.
		home := 0
		if as.numa() {
			home = t.Node()
			if i := as.findVMA(addr); i >= 0 && as.vmas[i].Node >= 0 {
				home = as.vmas[i].Node
			}
		}
		if p == released {
			// Re-committing the frame is the one fault the limit can refuse;
			// never-touched pages were committed when their mapping grew.
			if as.memLimit > 0 && as.committed+PageSize > as.memLimit {
				as.stats.CommitFails++
				panic(OOMFault{Space: as.ID, Addr: addr, Limit: as.memLimit})
			}
			as.commitCharge(PageSize)
			as.stats.Refaults++
			t.Charge(sim.Time(as.costs.PageFault))
			if as.numa() && home != t.Node() {
				as.chargeRemote(t, as.costs.PageFault, true)
			}
		} else {
			t.Lock(as.mmLock)
			t.Charge(sim.Time(as.costs.PageFault))
			if as.numa() && home != t.Node() {
				as.chargeRemote(t, as.costs.PageFault, true)
			}
			t.Unlock(as.mmLock)
		}
		as.stats.MinorFaults++
		p = as.pool.page(int8(home))
		as.install(idx, p)
	}
	as.lastIdx, as.lastPage = idx, p
	return p
}

// residentPage returns the record of the page holding addr, which an
// access has already made resident, and makes it the one-entry cache's
// page. It never faults: the page walk here serves the few readers of a
// page beyond its granule, a memory fill's home node and a word that
// straddles two granules.
func (as *AddressSpace) residentPage(addr uint64) *page {
	if idx := addr / PageSize; as.lastPage == nil || as.lastIdx != idx {
		as.lastIdx, as.lastPage = idx, as.lookup(idx)
	}
	return as.lastPage
}

// access is the one data path of every charged load and store: it resolves
// the granule — the cache line — holding addr, bills one cache access for
// its line, and returns it. The granule comes from the granule cache when
// an entry holds it; otherwise access walks the page table to it (faulting
// the page in on first touch) and fills the entry. A hit is settled
// inline; anything else goes to miss. Hits and the misses that moved no
// data (upgrades) count as local fills.
func (as *AddressSpace) access(t *sim.Thread, addr uint64, write bool, op string) *granule {
	e, key := &as.grans[addr>>granuleShift%granCacheSize], as.gen|addr>>granuleShift
	if e.key != key || addr >= spaceLimit {
		p := as.lastPage
		if p == nil || as.lastIdx != addr/PageSize {
			p = as.page(t, addr, op)
		}
		i := addr % PageSize >> granuleShift
		g := as.peek(p, i)
		if g == nil {
			g = as.touch(p, i)
		}
		e.key, e.g = key, g
	}
	g := e.g
	c, local := as.cache.Hit(t.CPU(), &g.line, write)
	if !local {
		c, local = as.miss(t, addr, &g.line, write)
	}
	if local {
		as.chargeLocal(t, c)
	} else {
		t.Charge(sim.Time(c))
	}
	return g
}

// chargeLocal bills an access that moved no data: a hit or an upgrade.
func (as *AddressSpace) chargeLocal(t *sim.Thread, c int64) {
	as.stats.FillLocal++
	as.stats.FillLocalCycles += uint64(c)
	t.Charge(sim.Time(c))
}

// miss settles an access to line l at addr that Hit declined and returns
// its cost and whether no data moved (an upgrade, billed at the local rate).
// It counts the fills that moved data. On a multi-node machine such a fill
// that crossed a node boundary pays the remote multiplier on top: a
// memory-served miss travels from the page's home node, a cache-to-cache
// transfer from the supplying CPU's node.
func (as *AddressSpace) miss(t *sim.Thread, addr uint64, l *cache.Line, write bool) (int64, bool) {
	c, fill, from := as.cache.Access(t.CPU(), l, write)
	switch fill {
	case cache.FillMemory:
		as.stats.FillRemote++
		as.stats.FillRemoteCycles += uint64(c)
		if as.numaOn && int(as.residentPage(addr).node) != t.Node() {
			as.chargeRemote(t, c, false)
		}
	case cache.FillCache:
		as.stats.FillC2C++
		as.stats.FillC2CCycles += uint64(c)
		if as.numaOn && as.mach.NodeOfCPU(from) != t.Node() {
			as.chargeRemote(t, c, false)
		}
	}
	return c, fill == cache.FillNone
}

// Read32 loads a little-endian uint32. A word inside one granule that the
// granule cache holds, on a line the CPU holds, is settled here with the
// charges of access's hit branch; anything else goes to access, nothing
// updated.
func (as *AddressSpace) Read32(t *sim.Thread, addr uint64) uint32 {
	if e := &as.grans[addr>>granuleShift%granCacheSize]; e.key == as.gen|addr>>granuleShift &&
		addr < spaceLimit && addr%granuleSize <= granuleSize-4 {
		if c, ok := as.cache.Hit(t.CPU(), &e.g.line, false); ok {
			as.chargeLocal(t, c)
			return binary.LittleEndian.Uint32(e.g.data[addr%granuleSize:])
		}
	}
	g := as.access(t, addr, false, "read32")
	if o := addr % granuleSize; o <= granuleSize-4 {
		return binary.LittleEndian.Uint32(g.data[o:])
	}
	o := addr % PageSize
	if o+4 > PageSize {
		panic(Fault{Space: as.ID, Addr: addr, Op: "read32-split"})
	}
	return as.load32(as.residentPage(addr), o)
}

// Write32 stores a little-endian uint32, settling a cached hit as Read32
// does.
func (as *AddressSpace) Write32(t *sim.Thread, addr uint64, v uint32) {
	if e := &as.grans[addr>>granuleShift%granCacheSize]; e.key == as.gen|addr>>granuleShift &&
		addr < spaceLimit && addr%granuleSize <= granuleSize-4 {
		if c, ok := as.cache.Hit(t.CPU(), &e.g.line, true); ok {
			as.chargeLocal(t, c)
			binary.LittleEndian.PutUint32(e.g.data[addr%granuleSize:], v)
			return
		}
	}
	g := as.access(t, addr, true, "write32")
	if o := addr % granuleSize; o <= granuleSize-4 {
		binary.LittleEndian.PutUint32(g.data[o:], v)
		return
	}
	o := addr % PageSize
	if o+4 > PageSize {
		panic(Fault{Space: as.ID, Addr: addr, Op: "write32-split"})
	}
	as.store32(as.residentPage(addr), o, v)
}

// Read64 loads a little-endian uint64.
func (as *AddressSpace) Read64(t *sim.Thread, addr uint64) uint64 {
	lo := as.Read32(t, addr)
	hi := as.Read32(t, addr+4)
	return uint64(hi)<<32 | uint64(lo)
}

// Write64 stores a little-endian uint64.
func (as *AddressSpace) Write64(t *sim.Thread, addr uint64, v uint64) {
	as.Write32(t, addr, uint32(v))
	as.Write32(t, addr+4, uint32(v>>32))
}

// Write8 stores one byte (benchmark 3's write primitive).
func (as *AddressSpace) Write8(t *sim.Thread, addr uint64, v byte) {
	g := as.access(t, addr, true, "write8")
	g.data[addr%granuleSize] = v
}

// Read8 loads one byte.
func (as *AddressSpace) Read8(t *sim.Thread, addr uint64) byte {
	g := as.access(t, addr, false, "read8")
	return g.data[addr%granuleSize]
}

// Peek32 reads a little-endian uint32 without charging simulated costs or
// faulting pages in: untouched bytes read as zero. It exists for integrity
// checkers and debuggers that must not perturb the simulation.
func (as *AddressSpace) Peek32(addr uint64) uint32 {
	p := as.lookup(addr / PageSize)
	if p == nil {
		return 0
	}
	o := addr % PageSize
	if o+4 > PageSize {
		return 0
	}
	return as.load32(p, o)
}

// Peek8 reads one byte without charges or faults.
func (as *AddressSpace) Peek8(addr uint64) byte {
	p := as.lookup(addr / PageSize)
	if p == nil {
		return 0
	}
	g := as.peek(p, addr%PageSize>>granuleShift)
	if g == nil {
		return 0
	}
	return g.data[addr%granuleSize]
}

// Touch faults in the page containing addr without a data access charge
// beyond one read; used to model program startup touching its image.
func (as *AddressSpace) Touch(t *sim.Thread, addr uint64) {
	as.Read8(t, addr)
}

func pageFloor(a uint64) uint64 { return a &^ (PageSize - 1) }
func pageCeil(a uint64) uint64  { return (a + PageSize - 1) &^ (PageSize - 1) }

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
