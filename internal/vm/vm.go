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
// access path needs: the page's home node and its touched 32-byte
// granules, packed in a slice and found through a one-byte-per-granule
// slot index. A granule holds its bytes and, when it starts a cache line,
// that line's coherence directory entry (cache.Line). So one page walk —
// usually answered by the one-entry cache of the last page touched — and
// one slot load yield both the data and the line to charge; a hit is then
// settled by cache.Model.Hit without entering the full protocol.
//
// Only touched granules are stored: a granule never touched reads as zero,
// so a fault allocates the small record and zeroes nothing, and a resident
// page costs the host memory of what the program wrote or charged on it,
// not 4 KB. This is demand paging one level down — most simulated pages
// are touched in a few lines (chunk headers, a thread's stack top). A
// 32-bit access may straddle two granules; like every load or store it is
// billed as one access, to the line of its address.
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
// drops its resident pages, which read as zero — at the Refault cost — when
// next touched. Residency is observable through Stats (PagesPresent,
// ResidentBytes, PagesReleased, Refaults), which is what experiment D3's
// footprint time series plots.
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

func (k Kind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindData:
		return "data"
	case KindBrk:
		return "brk"
	case KindAnon:
		return "anon"
	case KindLib:
		return "lib"
	case KindStack:
		return "stack"
	}
	return "?"
}

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
	PageFault  int64 // servicing one minor fault
	// Refault is the cost of touching a page that ReleasePages gave back to
	// the kernel (madvise(DONTNEED) semantics): still a minor fault, but the
	// kernel must also hand out and zero a fresh frame. Zero falls back to
	// PageFault.
	Refault int64
}

// DefaultCosts returns constants for a late-1990s x86 kernel.
func DefaultCosts() Costs {
	return Costs{Syscall: 700, KernelHold: 900, PageFault: 1500, Refault: 1700}
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

// InjectPolicy configures deterministic fault injection on the two growth
// syscalls (sbrk growth and mmap). Modes combine: a call fails when any
// active mode says so. The zero policy disables injection.
type InjectPolicy struct {
	// Prob fails each growth call with this probability, drawn from a
	// dedicated PCG stream seeded by Seed — independent of the machine's
	// scheduling randomness, so adding injection never perturbs a run's
	// other draws.
	Prob float64
	// EveryNth fails every Nth growth call (counting from 1) when > 0.
	EveryNth uint64
	// BudgetBytes, when > 0, allows that many bytes of further mapping
	// growth and then fails every growth call — the remaining-budget mode
	// that simulates a slowly exhausting reserve.
	BudgetBytes int64
	// Seed seeds the probability stream (0 is a valid seed).
	Seed uint64
}

// active reports whether any injection mode is configured.
func (p InjectPolicy) active() bool {
	return p.Prob > 0 || p.EveryNth > 0 || p.BudgetBytes > 0
}

// injector is the live fault-injection state behind SetFaultInjection.
type injector struct {
	policy InjectPolicy
	rng    *xrand.RNG
	calls  uint64
	budget int64
}

// fire decides whether this growth call (of delta bytes) fails. The budget
// is spent only by calls that survive the other modes, so a probability
// failure does not also consume reserve.
func (in *injector) fire(delta uint64) bool {
	in.calls++
	if in.policy.EveryNth > 0 && in.calls%in.policy.EveryNth == 0 {
		return true
	}
	if in.policy.Prob > 0 && in.rng.Float64() < in.policy.Prob {
		return true
	}
	if in.policy.BudgetBytes > 0 {
		if in.budget < int64(delta) {
			return true
		}
		in.budget -= int64(delta)
	}
	return false
}

// AddressSpace is one simulated process image.
type AddressSpace struct {
	ID    uint32
	mach  *sim.Machine
	cache *cache.Model
	costs Costs

	vmas []VMA // sorted by Start, non-overlapping
	brk  uint64

	// dir is the page table (see the package comment); resident counts
	// the records in it.
	dir      [dirSize]*pageLeaf
	resident uint64
	// lineShift is log2 of the cache model's line size.
	lineShift uint
	// released marks pages ReleasePages handed back to the kernel while their
	// VMA stayed mapped: the next touch is a refault, not a first touch.
	released map[uint64]bool
	// numaOn caches whether the machine has more than one node (events are
	// counted whenever they cross nodes); remoteMult caches the cross-node
	// multiplier that prices them (1 = free interconnect, nothing extra
	// charged but still counted).
	numaOn     bool
	remoteMult float64
	// reuseNodeAffinity makes MmapFromReuse prefer regions homed on the
	// caller's node (the node-sharded allocator turns it on).
	reuseNodeAffinity bool
	// one-entry page lookup cache: allocator loops touch few pages.
	lastIdx  uint64
	lastPage *page

	// mmLock serializes faults and mapping changes among threads of this
	// address space (mmap_sem). kernelLock models the kernel-side lock for
	// VM syscalls; it may be shared between address spaces to reproduce the
	// pre-2.3.x global-kernel-lock behaviour the authors patched.
	mmLock     *sim.Mutex
	kernelLock *sim.Mutex

	mmapHint  uint64
	stackHint uint64

	// Mmap-region reuse cache: munmapped above-threshold regions park on a
	// bounded size-bucketed free list (with their pages and cache lines
	// intact) and are re-handed out without a syscall or fresh first-touch
	// faults. Disabled until SetMmapReuse is called with a non-zero cap.
	reuseCap     uint64 // max parked bytes; 0 disables the cache
	reuseWork    int64  // cycles charged per park/lookup
	reuseParked  uint64
	reuseSeq     uint64
	reuseBuckets map[uint64][]reuseRegion // keyed by page-rounded length
	// parkDisabled suspends parking new regions (MunmapReuse refuses, the
	// caller munmaps for real) while leaving already-parked regions
	// available for lookup — the allocator's under-pressure degradation.
	parkDisabled bool

	// memLimit bounds committed (mapped-minus-released) bytes when > 0: the
	// RLIMIT_AS / cgroup memory.max analog. committed is tracked either way.
	memLimit  uint64
	committed uint64
	// inject, when non-nil, deterministically fails growth syscalls.
	inject *injector

	stats Stats
}

// Page-table geometry: 2^20 pages of a 32-bit space, split into a
// directory of dirSize leaves of leafSize entries each.
const (
	leafBits = 10
	leafSize = 1 << leafBits
	dirSize  = 1 << (32 - 12 - leafBits)
)

// Granule geometry: a page is stored as the granules touched on it. A
// granule is the narrowest line the cache model accepts, so every line
// starts on a granule boundary.
const (
	granuleShift = cache.MinLineShift
	granuleSize  = 1 << granuleShift
	pageGranules = PageSize >> granuleShift
)

// pageLeaf is one second-level node of the page table.
type pageLeaf [leafSize]*page

// page is one resident page's record.
type page struct {
	// node is the page's home node (first touch or VMA binding; always 0
	// on a 1-node machine). See the package comment's locality model.
	node int8
	// slot maps a granule's index within the page to 1 + its position in
	// grans, 0 for a granule never touched. A page has 128 granules, so a
	// slot fits in a byte.
	slot  [pageGranules]uint8
	grans []granule
}

// granule is 32 touched bytes of a page, plus the directory entry of the
// cache line that starts at them (unused when a wider line starts on an
// earlier granule).
type granule struct {
	data [granuleSize]byte
	line cache.Line
}

// granule returns granule i of the page, materializing a zero one on
// first touch. Materializing may move the others: a pointer from an
// earlier call is stale after a call that added a granule.
func (p *page) granule(i uint64) *granule {
	if g := p.peek(i); g != nil {
		return g
	}
	p.grans = append(p.grans, granule{})
	p.slot[i] = uint8(len(p.grans))
	return &p.grans[len(p.grans)-1]
}

// peek returns granule i of the page, or nil when it was never touched.
func (p *page) peek(i uint64) *granule {
	if s := p.slot[i]; s != 0 {
		return &p.grans[s-1]
	}
	return nil
}

// load32 reads the little-endian word at byte offset o of the page (o+4 <=
// PageSize), which may straddle two granules. Untouched bytes read as zero.
func (p *page) load32(o uint64) uint32 {
	if o%granuleSize <= granuleSize-4 {
		if g := p.peek(o >> granuleShift); g != nil {
			return binary.LittleEndian.Uint32(g.data[o%granuleSize:])
		}
		return 0
	}
	var v uint32
	for i := uint64(0); i < 4; i++ {
		if g := p.peek((o + i) >> granuleShift); g != nil {
			v |= uint32(g.data[(o+i)%granuleSize]) << (8 * i)
		}
	}
	return v
}

// store32 writes the little-endian word at byte offset o of the page (o+4
// <= PageSize) when it straddles two granules, materializing both.
func (p *page) store32(o uint64, v uint32) {
	for i := uint64(0); i < 4; i++ {
		p.granule((o + i) >> granuleShift).data[(o+i)%granuleSize] = byte(v >> (8 * i))
	}
}

// lookup returns the resident record of page number idx, or nil.
func (as *AddressSpace) lookup(idx uint64) *page {
	if idx >= dirSize*leafSize {
		return nil
	}
	leaf := as.dir[idx>>leafBits]
	if leaf == nil {
		return nil
	}
	return leaf[idx&(leafSize-1)]
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
// lines together — and reports whether the page was resident.
func (as *AddressSpace) evict(idx uint64) bool {
	if idx >= dirSize*leafSize {
		return false
	}
	leaf := as.dir[idx>>leafBits]
	if leaf == nil || leaf[idx&(leafSize-1)] == nil {
		return false
	}
	leaf[idx&(leafSize-1)] = nil
	as.resident--
	return true
}

// reuseRegion is one parked anonymous mapping awaiting reuse.
type reuseRegion struct {
	addr, length uint64
	seq          uint64   // park order, for FIFO eviction under the cap
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
		ID:           id,
		mach:         m,
		cache:        model,
		costs:        DefaultCosts(),
		brk:          DataBase,
		lineShift:    model.LineShift(),
		released:     make(map[uint64]bool),
		numaOn:       m.Nodes() > 1,
		remoteMult:   m.RemoteMultiplier(),
		mmapHint:     MmapBase,
		stackHint:    StackTop,
		reuseBuckets: make(map[uint64][]reuseRegion),
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
				if p != nil {
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
// bucket holds one. Off (the default) keeps the pure-LIFO node-blind
// behaviour; remote hand-outs are charged and counted either way.
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

// SetRefaultCost overrides the cost charged when a released page is touched
// again (allocator-level experiments tune it without a whole new profile).
func (as *AddressSpace) SetRefaultCost(c int64) {
	as.costs.Refault = c
}

// SetMmapReuse enables the mmap-region reuse cache with the given byte cap
// (0 disables it) and per-operation cycle charge. Parked regions keep their
// pages resident, so the cap is the honest bound on the extra RSS the cache
// may hold.
func (as *AddressSpace) SetMmapReuse(capBytes uint64, work int64) {
	as.reuseCap = capBytes
	as.reuseWork = work
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

// SetFaultInjection installs deterministic growth-failure injection (the
// zero policy disables it). The probability stream is seeded from
// p.Seed only, so two spaces with the same policy fail identically.
func (as *AddressSpace) SetFaultInjection(p InjectPolicy) {
	if !p.active() {
		as.inject = nil
		return
	}
	as.inject = &injector{policy: p, rng: xrand.New(p.Seed, uint64(as.ID)), budget: p.BudgetBytes}
}

// mayGrow vets a growth syscall of delta bytes against fault injection and
// the commit limit, in that order. The caller charges syscall time first:
// a refused call still entered the kernel.
func (as *AddressSpace) mayGrow(delta uint64) error {
	if as.inject != nil && as.inject.fire(delta) {
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
		if as.released[p/PageSize] {
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
	var out []VMA
	removed := uint64(0)
	for _, v := range as.vmas {
		if v.End <= addr || v.Start >= end || (v.Kind != KindAnon && v.Kind != KindStack) {
			out = append(out, v)
			continue
		}
		// Keep the pieces outside [addr, end).
		if v.Start < addr {
			out = append(out, VMA{Start: v.Start, End: addr, Kind: v.Kind, Name: v.Name, Node: v.Node})
		}
		if v.End > end {
			out = append(out, VMA{Start: end, End: v.End, Kind: v.Kind, Name: v.Name, Node: v.Node})
		}
		lo, hi := maxU64(v.Start, addr), minU64(v.End, end)
		removed += hi - lo
	}
	if removed == 0 {
		return fmt.Errorf("vm: munmap(0x%x, %d): no mapping there", addr, length)
	}
	as.vmas = out
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
// Buckets match on the exact page-rounded length, keeping the accounting
// honest: a hit reuses precisely what a park put in.
//
// On a multi-node machine a hand-out of a region homed on another node is a
// remote-access event: it is counted, and the reuse work is charged at the
// remote rate (the touches that follow pay their own remote miss costs).
// With SetReuseNodeAffinity on, the bucket is first scanned newest-to-oldest
// for a region homed on the caller's node, so local warmth wins over pure
// LIFO order.
func (as *AddressSpace) MmapFromReuse(t *sim.Thread, length uint64) (uint64, bool) {
	if as.reuseCap == 0 || length == 0 {
		return 0, false
	}
	t.Charge(sim.Time(as.reuseWork))
	length = pageCeil(length)
	list := as.reuseBuckets[length]
	if len(list) == 0 {
		return 0, false
	}
	// LIFO within the bucket: the most recently parked region has the
	// warmest pages and cache lines.
	pick := len(list) - 1
	if as.reuseNodeAffinity && as.numa() {
		// Node affinity: serve the newest region homed on the caller's node
		// when the bucket holds one; otherwise fall back to the LIFO pick.
		// The fallback still beats a fresh mmap — the remote surcharge on a
		// region's touches is cheaper than first-touch-faulting every page
		// of a new mapping — it is just recorded and charged as the remote
		// hand-out it is.
		node := int8(t.Node())
		for i := len(list) - 1; i >= 0; i-- {
			if list[i].node == node {
				pick = i
				break
			}
		}
	}
	r := list[pick]
	as.reuseBuckets[length] = append(list[:pick], list[pick+1:]...)
	if len(as.reuseBuckets[length]) == 0 {
		delete(as.reuseBuckets, length)
	}
	as.reuseParked -= r.length
	as.stats.MmapReuses++
	as.stats.MmapReuseBytes += r.length
	if as.numa() && int(r.node) != t.Node() {
		as.stats.ReuseRemoteHands++
		as.chargeRemote(t, as.reuseWork, false)
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
	t.Charge(sim.Time(as.reuseWork))
	for as.reuseParked+length > as.reuseCap && as.reuseParked > 0 {
		if err := as.evictOldestReuse(t); err != nil {
			return false, err
		}
	}
	as.reuseSeq++
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
	as.reuseBuckets[length] = append(as.reuseBuckets[length], reuseRegion{addr: addr, length: length, seq: as.reuseSeq, parkedAt: t.Now(), node: node})
	as.reuseParked += length
	as.stats.MmapReuseParks++
	return true, nil
}

// oldestReuse locates the least recently parked region (minimum seq, which is
// also the minimum park time) across all buckets. Returns ok=false when the
// cache is empty.
func (as *AddressSpace) oldestReuse() (key uint64, idx int, ok bool) {
	bestSeq := ^uint64(0)
	idx = -1
	for k, list := range as.reuseBuckets {
		for i, r := range list {
			if r.seq < bestSeq {
				bestSeq, key, idx = r.seq, k, i
			}
		}
	}
	return key, idx, idx >= 0
}

// removeReuse unlinks bucket entry (key, idx) and returns it.
func (as *AddressSpace) removeReuse(key uint64, idx int) reuseRegion {
	list := as.reuseBuckets[key]
	r := list[idx]
	as.reuseBuckets[key] = append(list[:idx], list[idx+1:]...)
	if len(as.reuseBuckets[key]) == 0 {
		delete(as.reuseBuckets, key)
	}
	as.reuseParked -= r.length
	return r
}

// evictOldestReuse munmaps the least recently parked region. Eviction is a
// recovery path under a commit limit, so a munmap failure is returned, not
// panicked: the region is already off the cache books either way.
func (as *AddressSpace) evictOldestReuse(t *sim.Thread) error {
	k, i, ok := as.oldestReuse()
	if !ok {
		return nil
	}
	r := as.removeReuse(k, i)
	as.stats.MmapReuseEvicts++
	if err := as.Munmap(t, r.addr, r.length); err != nil {
		return fmt.Errorf("vm: evicting parked reuse region: %w", err)
	}
	return nil
}

// EvictReuseBefore munmaps every parked reuse region whose park time is
// earlier than cutoff — the scavenger's age sweep over the reuse tier.
// Regions are evicted oldest-first, so the sweep is deterministic. Returns
// the regions and bytes released before any error stopped the sweep.
func (as *AddressSpace) EvictReuseBefore(t *sim.Thread, cutoff sim.Time) (regions, bytes uint64, err error) {
	for {
		k, i, ok := as.oldestReuse()
		if !ok || as.reuseBuckets[k][i].parkedAt >= cutoff {
			return regions, bytes, nil
		}
		r := as.removeReuse(k, i)
		as.stats.MmapReuseExpired++
		if err := as.Munmap(t, r.addr, r.length); err != nil {
			return regions, bytes, fmt.Errorf("vm: expiring parked reuse region: %w", err)
		}
		regions++
		bytes += r.length
	}
}

// ReleasePages hands the resident pages of [addr, addr+length) back to the
// kernel without unmapping them — madvise(MADV_DONTNEED) semantics. The
// region stays mapped; its pages become non-resident and read as zero when
// next touched, at which point the toucher pays the Refault cost. Partial
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
	released := uint64(0)
	for p := lo; p < hi; p += PageSize {
		idx := p / PageSize
		// The frame goes with its home node and cache lines: a refault
		// re-homes it and starts every line cold.
		if !as.evict(idx) {
			continue // never touched or already released: nothing resident
		}
		as.released[idx] = true
		released += PageSize
	}
	as.lastPage = nil
	as.stats.PagesReleased += released / PageSize
	// The kernel may hand the frames to someone else: they stop counting
	// against the commit limit until a touch re-commits them.
	as.commitCredit(released)
	return released
}

// dropPages discards backing pages and cache lines for [lo, hi).
func (as *AddressSpace) dropPages(lo, hi uint64) {
	if hi <= lo {
		return
	}
	for p := pageFloor(lo); p < hi; p += PageSize {
		as.evict(p / PageSize)
		delete(as.released, p/PageSize)
	}
	as.lastPage = nil
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
	p := as.lookup(idx)
	if p == nil {
		if !as.mapped(addr) {
			panic(Fault{Space: as.ID, Addr: addr, Op: op})
		}
		// Minor fault: serialize on the address-space lock, charge service
		// time, and install a zero page — an empty record, whose untouched
		// granules read as zero. A page ReleasePages gave back costs the
		// (usually higher) refault rate and is counted separately, but it
		// is still a minor fault. Refaults are serviced without the
		// exclusive lock: the VMA tree is unchanged (do_anonymous_page runs
		// with mmap_sem held shared, and the fresh frame is zeroed outside
		// the page-table lock), so concurrent threads refaulting a released
		// range after an idle phase do not queue behind one another the way
		// the first-touch path — whose costs the paper's benchmarks
		// calibrate and which is deliberately left on the exclusive-lock
		// simplification for reproduction stability — models. The asymmetry
		// is intentional and applies even when Refault falls back to the
		// PageFault cost: what distinguishes the paths is release history,
		// which only reclamation-enabled configurations ever create.
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
		if as.released[idx] {
			// Re-committing the frame is the one fault the limit can refuse;
			// never-touched pages were committed when their mapping grew.
			if as.memLimit > 0 && as.committed+PageSize > as.memLimit {
				as.stats.CommitFails++
				panic(OOMFault{Space: as.ID, Addr: addr, Limit: as.memLimit})
			}
			as.commitCharge(PageSize)
			cost := as.costs.Refault
			if cost <= 0 {
				cost = as.costs.PageFault
			}
			delete(as.released, idx)
			as.stats.Refaults++
			t.Charge(sim.Time(cost))
			if as.numa() && home != t.Node() {
				as.chargeRemote(t, cost, true)
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
		p = &page{node: int8(home)}
		as.install(idx, p)
	}
	as.lastIdx, as.lastPage = idx, p
	return p
}

// access is the one data path of every charged load and store: it resolves
// the page holding addr (faulting it in on first touch) and the granule
// holding addr, bills one cache access for addr's line, and returns both.
// A hit is settled inline; anything else goes to miss. Hits and the misses
// that moved no data (upgrades) count as local fills.
func (as *AddressSpace) access(t *sim.Thread, addr uint64, write bool, op string) (*page, *granule) {
	p := as.lastPage
	if p == nil || as.lastIdx != addr/PageSize {
		p = as.page(t, addr, op)
	}
	off := addr % PageSize
	g := p.granule(off >> granuleShift)
	l := &g.line
	if as.lineShift != granuleShift {
		// A wider line keeps its entry in the granule it starts at.
		l = &p.granule(off >> as.lineShift << (as.lineShift - granuleShift)).line
		g = p.granule(off >> granuleShift) // re-resolved: the line's granule may have moved it
	}
	c, local := as.cache.Hit(t.CPU(), l, write)
	if !local {
		c, local = as.miss(t, p, l, write)
	}
	if local {
		as.stats.FillLocal++
		as.stats.FillLocalCycles += uint64(c)
	}
	t.Charge(sim.Time(c))
	return p, g
}

// miss settles an access to line l of page p that Hit declined and returns
// its cost and whether no data moved (an upgrade, billed at the local rate).
// It counts the fills that moved data. On a multi-node machine such a fill
// that crossed a node boundary pays the remote multiplier on top: a
// memory-served miss travels from the page's home node, a cache-to-cache
// transfer from the supplying CPU's node.
func (as *AddressSpace) miss(t *sim.Thread, p *page, l *cache.Line, write bool) (int64, bool) {
	c, fill, from := as.cache.Access(t.CPU(), l, write)
	switch fill {
	case cache.FillMemory:
		as.stats.FillRemote++
		as.stats.FillRemoteCycles += uint64(c)
		if as.numaOn && int(p.node) != t.Node() {
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

// LineSize reports the cache model's line size in bytes — the quantum
// line-aware allocator placement (malloc.CostParams.LineAware) rounds to.
func (as *AddressSpace) LineSize() uint64 { return as.cache.LineSize() }

// Read32 loads a little-endian uint32.
func (as *AddressSpace) Read32(t *sim.Thread, addr uint64) uint32 {
	p, g := as.access(t, addr, false, "read32")
	if o := addr % granuleSize; o <= granuleSize-4 {
		return binary.LittleEndian.Uint32(g.data[o:])
	}
	o := addr % PageSize
	if o+4 > PageSize {
		panic(Fault{Space: as.ID, Addr: addr, Op: "read32-split"})
	}
	return p.load32(o)
}

// Write32 stores a little-endian uint32.
func (as *AddressSpace) Write32(t *sim.Thread, addr uint64, v uint32) {
	p, g := as.access(t, addr, true, "write32")
	if o := addr % granuleSize; o <= granuleSize-4 {
		binary.LittleEndian.PutUint32(g.data[o:], v)
		return
	}
	o := addr % PageSize
	if o+4 > PageSize {
		panic(Fault{Space: as.ID, Addr: addr, Op: "write32-split"})
	}
	p.store32(o, v)
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
	_, g := as.access(t, addr, true, "write8")
	g.data[addr%granuleSize] = v
}

// Read8 loads one byte.
func (as *AddressSpace) Read8(t *sim.Thread, addr uint64) byte {
	_, g := as.access(t, addr, false, "read8")
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
	return p.load32(o)
}

// Peek8 reads one byte without charges or faults.
func (as *AddressSpace) Peek8(addr uint64) byte {
	p := as.lookup(addr / PageSize)
	if p == nil {
		return 0
	}
	g := p.peek(addr % PageSize >> granuleShift)
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

// TouchRange faults in every page of [addr, addr+length).
func (as *AddressSpace) TouchRange(t *sim.Thread, addr, length uint64) {
	for a := pageFloor(addr); a < addr+length; a += PageSize {
		as.Touch(t, a)
	}
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
