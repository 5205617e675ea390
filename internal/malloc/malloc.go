// Package malloc assembles heap arenas into the allocator designs the paper
// compares:
//
//   - Serial: one arena behind one mutex — the classic thread-safe libc
//     malloc (the paper's Solaris 2.6 allocator).
//
//   - PTMalloc: Gloger's ptmalloc as shipped in glibc 2.0/2.1 — an arena
//     list searched with trylock, growing a new arena when every existing
//     one is busy, with per-thread last-arena caching.
//
//   - PerThread: one private arena per thread (the "per-thread storage"
//     option 2 from the paper's §2), cross-thread frees lock the owner.
//
//   - ThreadCache: the magazine design later allocators converged on,
//     grown here into a three-tier hierarchy:
//
//     magazine -> depot (central transfer cache) -> page backend
//
//     Tier 1 is a per-thread, per-size-class magazine: pops and pushes are
//     lock-free and cost cacheHitWork cycles. Each class's high-water mark
//     is adaptive by default (CacheAdaptive): it starts at one batch of
//     cacheBatch chunks, grows by a batch after cacheGrowStreak consecutive
//     lock-free hits, shrinks by a batch whenever the class flushes, and is
//     clamped to [cacheBatch, cacheHigh]. Tier 2 is the depot: a shared
//     per-size-class store of chunk spans. Magazine misses try it
//     (depotXferWork cycles plus the class's lock or CAS) before touching
//     the backend, and magazine flushes and detaches donate whole spans to
//     it, so cross-thread free traffic becomes one depot exchange instead of
//     N arena-lock frees. Each depot class parks at most DepotCapBytes;
//     overflow falls through to tier 3, the CPU-bounded shared arena pool.
//
//     One machine serves four kinds, and the Kind alone picks its parts
//     (see ThreadCache): threadcache prices the depot with mutexes;
//     lockfree (the D5 ablation) re-prices every shared tier with CAS and
//     carves cacheable refills from a non-blocking buddy page allocator
//     (heap.Buddy), so its depot lock acquisitions are zero by construction
//     and its contention surfaces in Stats.CASAttempts/CASFails;
//     threadcache-svc and lockfree-svc add per-node service threads that
//     take over refill, flush and scavenge bookkeeping (service.go, D10).
//
// # One op frame, many designs
//
// Every kind runs the same op frame, written once on base: Malloc, Free,
// Stats and Check. The frame owns everything the designs share — the
// preemption point, the per-op shared-state tax, the inline scavenge tick,
// the mmap path, line-quantization metering, one telemetry record per op and
// the out-of-memory cascade-and-retry (pressure.go) — and asks the design,
// through the unexported design interface, only what differs. base answers
// every question itself — a malloc locks the one main arena, a free is
// routed to its owner — so Serial is base plus one answer, PTMalloc and
// PerThread override how a malloc gets a locked arena and what a full arena
// falls over to (paper.go), and ThreadCache replaces the arena path
// wholesale with its tier walk (threadcache.go). Which arena is a thread's
// own, the one the per-op tax bills, is data: the table base.own points at.
// New returns the design itself; nothing wraps it.
//
// All variants serve requests at or above the mmap threshold from dedicated
// anonymous mappings, as glibc does ("mmap() for allocation requests larger
// than 32 pages"). A fourth, orthogonal tier lives in the vm layer: the
// mmap-region reuse cache (MmapReuseCap bytes) parks munmapped
// above-threshold regions — pages intact — on a bounded park-ordered list
// and re-hands them out without a syscall or fresh first-touch faults.
// ThreadCache enables it by default (DefaultMmapReuseCap); the paper's
// designs leave it off so their measured syscall and fault counts stay
// faithful. Stats reports the allocator's own tiers:
// Depot{Hits,Misses,Donates,Overflows,Chunks,Bytes}, CachedBytes,
// CacheMark{Grows,Shrinks} and ArenaLockAcqs; the reuse tier counts in the
// address space's vm.Stats (MmapReuses, MmapReuseBytes, MmapReuseParked).
//
// # The four-tier hierarchy and its reclamation paths
//
// Allocation flows down the hierarchy; reclamation (internal/scavenge,
// enabled by ScavengeInterval > 0) flows the same way and then out of the
// process:
//
//	magazine ──miss──> depot ──miss──> arena ──extend──> vm (sbrk/mmap)
//	    │                │                │                  │
//	    │ idle decay     │ cold spans     │ TrimTop +        │ ReleasePages /
//	    ▼                ▼                ▼ ReleaseBinned    ▼ munmap
//	  arenas           arenas        page release          kernel
//
// Every epoch (ScavengeInterval cycles of virtual time, ticked inline by
// allocator ops and kept alive during idle by a background thread), the
// scavenger decays ScavengeDecay percent of whatever has been idle for at
// least one epoch, in five cascade stages: magazines of threads that
// stopped allocating flush into their arenas (small classes carry a
// fractional decay remainder, so the configured rate holds even for a
// one-entry class), depot classes nobody exchanged with return whole spans
// to the arenas (tcmalloc's ReleaseToSpans), free chunks that have sat
// binned for a full epoch lose their whole-page interiors (tcmalloc's
// PageHeap release — the only stage that reaches memory coalesced into the
// middle of a multi-segment sub-arena; enabled by ScavengeMinBinBytes,
// padded by ScavengeBinPad), reuse-cache regions parked longer than an
// epoch are munmapped for real, and finally each arena's free top tail
// past scavengeTrimPad is handed back madvise(DONTNEED)-style — the region
// stays mapped and the next touch pays the refault cost. The binned and trim
// stages skip arenas with a malloc/free since the cutoff, so a mid-burst
// arena is never forced into a madvise/refault ping-pong. Experiment D3
// measures the result: burst footprint decays during idle phases while the
// post-idle burst keeps its throughput. Stats carries the allocator's side
// in the Scavenge* counters; the address space's vm.Stats counts the pages
// released and refaulted (PagesReleased, Refaults).
//
// # The locality model (NUMA node sharding)
//
// On a machine with more than one NUMA node (sim.Config.Nodes), the thread
// cache shards its middle and bottom tiers by node unless NUMANodeBlind
// opts out:
//
//   - the arena pool becomes one shard per node, each capped at the node's
//     CPU count, its arenas' mappings bound to the node (heap.NewSubOnNode /
//     vm.MmapOnNode). homeArena routes a thread to its own node's shard, so
//     a batch refill never carves remote memory while local exists;
//   - the depot becomes one depot per node: magazine flushes donate to the
//     flusher's node, misses pull from it;
//   - frees of chunks owned by another node's arena are NOT parked in the
//     local magazine (they would be handed back out as remote memory);
//     they are buffered per class and routed to the owning node's depot in
//     whole spans, Hoard's remote-free rule, counted in
//     Stats.RemoteFrees/RemoteBytes. Chunks of unbound arenas (the main
//     arena) are exempt and park locally;
//   - the vm reuse cache prefers handing out regions homed on the caller's
//     node (vm.SetReuseNodeAffinity), falling back to the LIFO pick — a
//     charged, counted remote hand-out — when no local region is parked;
//   - the scavenger cascade walks shard by shard: each node's depot flushes
//     into its own node's arenas and the page-release stages sweep the pool
//     in node order, so reclamation stays node-local too.
//
// The cost side lives in vm (the RemoteAccess multiplier on cross-node
// faults, memory-served misses and hand-outs, counted in vm.Stats as
// RemoteAccesses/RemoteAccessCycles/RemoteFaults). Experiment D4 compares
// node-blind and node-sharded placement across 1/2/4-node machines; on one
// node both configurations are the same single-shard code path and every
// paper-era number is unchanged.
//
// # Line-aware placement
//
// A heap.Params.Align of at least the cache line (cache.LineSize) — the
// paper's cache-aligned malloc, benchmark 3's aligned mode — makes placement
// line-aware, the experiment D9 dimension. Request2Size rounds every chunk
// to a line multiple, so a chunk carved by any arena or by the buddy backend
// owns its payload lines outright and two magazines never split a line
// through any tier, because magazines, depots and the service shelf exchange
// chunks whole; the thread cache's Check enforces it. Buddy-backed spans
// also get a per-thread color offset (the first-chunk origin rotates by line
// strides) so the hot head chunks of different threads' spans do not
// collide in the same cache index sets. The price is internal
// fragmentation: Stats.LineQuantBytes (cumulative rounding overhead against
// the 8-byte baseline) and Stats.LineColorBytes (bytes currently lost to
// color offsets). At the default 8-byte alignment none of this runs.
//
// # Shared C library state model
//
// The paper measures a ~10% (dual-CPU) to ~20% (quad-CPU) penalty for two
// threads sharing one C library against two processes with private
// libraries, and a bimodal per-thread slowdown it attributes to "allocator
// variables that are improperly aligned with regard to hardware caches"
// (Table 4). Those effects come from coherence traffic on allocator globals
// at a finer grain than the engine's batch scheduling resolves, so they are
// modelled analytically: every operation on an allocator
// instance shared by s active threads pays SharedTaxUnit*(s-1)/s cycles,
// and operations on the main arena — whose metadata shares its cache line
// with the library globals — pay MainArenaSloshUnit*(s-2) more once a third
// thread joins. Two processes have separate instances, so s stays 1 and the
// taxes vanish, exactly as in the paper's process runs.
package malloc

import (
	"fmt"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// CostParams holds the allocator-level instruction costs in cycles plus the
// design knobs a profile or experiment varies; the memory traffic underneath
// is charged by the heap/vm/cache layers, and the magazine machine's fixed
// tuning lives in constants (threadcache.go).
type CostParams struct {
	WorkMalloc int64 // fixed instruction work per malloc
	WorkFree   int64 // fixed instruction work per free
	TSDRead    int64 // reading thread-specific data (last-arena pointer)
	// SharedTaxUnit scales the per-op shared-library coherence tax (see
	// package comment).
	SharedTaxUnit int64
	// MainArenaSloshUnit scales the extra main-arena penalty once three or
	// more threads run on one instance.
	MainArenaSloshUnit int64

	// DepotCapBytes bounds the bytes parked in each class of the central
	// transfer cache (the depot between thread magazines and the page
	// backend; DefaultDepotCapBytes when 0). A byte cap, not a span count:
	// shrunken adaptive marks donate small spans, which a count limit would
	// refuse while parking almost nothing. < 0 disables the depot entirely
	// (PR-1 behaviour: flushes free chunk by chunk into arenas).
	DepotCapBytes int64

	// Adaptive magazine sizing (tcmalloc's slow start). CacheAdaptive >= 0
	// grows each class's high-water mark on consecutive-hit streaks and
	// shrinks it on flush pressure, between cacheBatch and cacheHigh;
	// CacheAdaptive < 0 pins every mark at cacheHigh (the PR-1 fixed mark).
	CacheAdaptive int

	// Mmap-region reuse cache (shared vm tier). MmapReuseCap is the byte cap
	// on parked regions: 0 leaves the cache off for designs that predate it
	// (the paper's allocators), NewThreadCache defaults it on; < 0 disables
	// it explicitly.
	MmapReuseCap int64

	// Scavenger (internal/scavenge): epoch-driven decay of idle parked
	// memory across all tiers. ScavengeInterval is the epoch length in
	// cycles; 0 or negative leaves the scavenger off (the default — the
	// paper's designs and PR-2 behaviour are unchanged unless a profile or
	// experiment opts in).
	ScavengeInterval int64
	// ScavengeDecay is the percentage of an idle tier's parked memory
	// released per epoch (clamped to [1, 100]; 0 takes the default).
	ScavengeDecay int
	// ScavengeMinBinBytes enables the PageHeap-style binned-chunk release
	// stage (Arena.ReleaseBinned): a free chunk idle for a full epoch has the
	// whole pages strictly inside it handed back to the kernel, provided at
	// least this many bytes are releasable — below that the madvise is not
	// worth its syscall. 0 (the default) leaves the stage off, so D1/D2 and
	// every pre-existing profile measure exactly what they did before.
	ScavengeMinBinBytes int64
	// ScavengeBinPad is the binned analogue of the top trim's pad: each
	// arena keeps up to this many bytes of binned-chunk interior resident,
	// biggest cold chunks released first, so the next burst's best-fit
	// refill carves warm memory before it ever touches a released page (0
	// takes the default, < 0 keeps no pad).
	ScavengeBinPad int64

	// NUMANodeBlind disables node-aware placement on multi-node machines:
	// one flat arena pool with first-touch mappings, a single depot, no
	// remote-free routing and no reuse-cache node preference — exactly the
	// pre-NUMA thread cache, kept as experiment D4's baseline. On a 1-node
	// machine the sharded and blind paths are the same code with one shard,
	// so the flag has no effect there.
	NUMANodeBlind bool
}

// DefaultMmapReuseCap is the parked-bytes cap NewThreadCache applies when
// MmapReuseCap is zero: a few above-threshold regions, bounded so the RSS
// the cache holds back from the kernel stays honest.
const DefaultMmapReuseCap = 4 << 20

// DefaultDepotCapBytes is the per-class byte cap NewThreadCache applies when
// DepotCapBytes is zero: about eight spans of cacheBatch default-sized
// chunks, counted in bytes so small spans from shrunken adaptive marks fit.
const DefaultDepotCapBytes = 64 << 10

// Service-thread tuning of the -svc kinds: the epoch length in cycles (how
// often a service thread polls its mailbox, prefetches and scavenges), the
// posts one node's mailbox parks before posters fall back to the
// synchronous release path, and the floor on prefetched spans kept ready
// per demanded size class (demand deepens the shelf up to 16x). The epoch
// is short relative to a scavenge interval — the mailbox must turn around
// within a burst — and the mailbox and watermark are sized in spans, not
// chunks. The mailbox cap must absorb a node's worth of flush traffic for
// one epoch: a post the cap rejects sends the whole batch down the
// synchronous remote-release path, which under a handoff (cross-node free)
// load costs ~1000x the post. 1024 posts of a 16-chunk span bound the
// parked overflow near 1 MB per node — memory the pressure cascade reclaims
// first anyway.
const (
	DefaultServiceInterval   = 50_000
	DefaultServiceMailboxCap = 1024
	DefaultServiceWatermark  = 4
)

// DefaultScavengeBinPad is the per-arena resident pad of binned-chunk
// interior the binned release keeps when ScavengeBinPad is zero. A quarter
// of a sub-arena: enough warm memory for a burst's refill to get going
// before it touches a released page.
const DefaultScavengeBinPad = 256 << 10

// DefaultCostParams returns mid-range constants; machine profiles override.
func DefaultCostParams() CostParams {
	return CostParams{
		WorkMalloc:    140,
		WorkFree:      110,
		TSDRead:       8,
		DepotCapBytes: DefaultDepotCapBytes,
		// MmapReuseCap stays 0: only designs that opt in (NewThreadCache
		// defaults it to DefaultMmapReuseCap) enable the reuse tier, so the
		// paper's allocators keep their measured syscall and fault counts.

		// ScavengeInterval stays 0: reclamation is opt-in, so every
		// throughput experiment (D1/D2) measures exactly what it did before
		// the subsystem existed. D3 and production profiles turn it on.
		ScavengeDecay: 50,
	}
}

// Stats aggregates what the allocator counts or sums itself: its tiers, its
// contention points, its scavenger and its arenas. Counters of the layers
// below are not copied: faults, residency, the mmap reuse cache, the commit
// meter, remote accesses and fill classes live in the address space's
// vm.Stats (AddressSpace().Stats()), and the buddy backend's block counters
// in heap.BuddyStats.
type Stats struct {
	Ops             uint64
	MmapDirect      uint64
	ArenaCreations  uint64
	TrylockFailures uint64
	CrossArenaFrees uint64 // frees routed to an arena other than the
	// caller's current arena
	// Thread-cache counters (zero for designs without a front cache).
	CacheHits    uint64 // mallocs served from the local cache, no lock
	CacheMisses  uint64 // mallocs that had to refill from a depot span or arena
	CacheRefills uint64 // batch refills performed against an arena
	CacheFlushes uint64 // batch flushes that reached the arenas
	CachedChunks int    // chunks parked in thread caches right now
	// Central transfer-cache (depot) counters.
	DepotHits      uint64 // magazine misses served by a depot span, no arena lock
	DepotMisses    uint64 // depot class empty: the miss fell through to an arena
	DepotDonates   uint64 // spans donated to the depot by flushes and detaches
	DepotOverflows uint64 // spans refused by a full depot class (arena-freed)
	DepotChunks    int    // chunks parked in the depot right now
	DepotBytes     uint64 // bytes parked in the depot right now
	CachedBytes    uint64 // bytes parked in thread magazines right now
	// Adaptive magazine sizing counters.
	CacheMarkGrows   uint64 // per-class marks grown on hit streaks
	CacheMarkShrinks uint64 // per-class marks shrunk on flush pressure
	// ArenaLockAcqs sums the arenas' mutex acquisitions: the contention
	// currency the transfer cache exists to save.
	ArenaLockAcqs uint64
	// Scavenger counters (all zero while scavenging is off).
	ScavengeEpochs uint64 // decay passes run
	// ScavengeBytes sums what every tier shed. Tiers overlap: magazine and
	// depot bytes are moved into the arenas (still resident), while reuse
	// and trim bytes leave the process — ScavengeReuseBytes +
	// ScavengeTrimBytes is the kernel-returned portion.
	ScavengeBytes       uint64
	ScavengeMagChunks   uint64 // idle magazine chunks flushed to arenas
	ScavengeDepotSpans  uint64 // cold depot spans returned to arenas
	ScavengeDepotChunks uint64 // chunks inside those spans
	ScavengeReuseBytes  uint64 // parked mmap regions munmapped by age
	ScavengeBinBytes    uint64 // binned-chunk interior bytes released to the kernel
	ScavengeTrimBytes   uint64 // arena-top bytes released to the kernel
	// NUMA counters (all zero on 1-node machines).
	RemoteFrees uint64 // frees of chunks owned by another node's arena (routed home, Hoard-style)
	RemoteBytes uint64 // bytes those remote frees covered
	// Contention-point counters (experiment D5's currency). DepotLockAcqs
	// sums the depot class-lock acquisitions — zero by construction on the
	// lock-free depot, whose traffic shows up in the CAS counters instead.
	// CASAttempts/CASFails/CASRetryCycles aggregate every CAS point the
	// allocator owns: depot stack heads, pool-shard cursors and the buddy
	// backend's bitmap words.
	DepotLockAcqs  uint64
	CASAttempts    uint64
	CASFails       uint64
	CASRetryCycles uint64
	// Magazine re-homing counters (the lock-free kinds).
	CacheRehomes  uint64 // thread caches re-homed after a node migration
	RehomedChunks uint64 // chunks released home by those re-homings
	// Service-thread offload counters (the -svc kinds; all zero inline).
	SvcEpochs       uint64 // service-thread epochs run
	SvcRefillHits   uint64 // magazine misses served by a prefetched mailbox span
	SvcRefillMisses uint64 // mailbox checked with no span ready (fell to depot/arena)
	SvcFlushPosts   uint64 // flush/remote batches posted to a mailbox
	SvcFallbacks    uint64 // posts refused by a full mailbox (synchronous release)
	SvcDrains       uint64 // posted batches the service thread drained
	SvcPrefetches   uint64 // spans prefetched into mailboxes ahead of demand
	SvcParkedChunks int    // chunks parked in mailboxes right now
	SvcParkedBytes  uint64 // bytes parked in mailboxes right now
	// Memory-pressure counters (pressure.go; all zero unless a commit limit
	// or fault injection makes an allocation fail).
	EmergencyScavenges uint64 // emergency reclamation cascade passes run
	OOMRetries         uint64 // allocations retried after a cascade pass
	OOMFails           uint64 // allocations that still failed after the last retry
	// PressureLevel is a gauge, not a counter: 0 calm, 1 an emergency pass
	// ran recently (magazine marks clamped), 2 sustained pressure (reuse
	// parking disabled too). It decays back to 0 once allocations stop
	// failing for a pressure window.
	PressureLevel int
	// Line-aware placement counters (heap.Params.Align at least a cache
	// line; all zero blind).
	// LineQuantBytes is the cumulative internal fragmentation added by
	// rounding chunk sizes to line multiples — the memory half of the D9
	// tradeoff. The color fields are gauges over live colored spans.
	LineQuantBytes uint64 // extra bytes per malloc from line quantization (cumulative)
	LineColorBytes uint64 // bytes currently sacrificed to span color offsets
	LineColorSpans uint64 // buddy spans currently carrying a color offset
	// The arena list.
	ArenaCount int        // arenas right now
	Heap       heap.Stats // summed over arenas
}

// Allocator is the public allocator interface: the system malloc/free pair
// plus introspection used by benchmarks and tests.
type Allocator interface {
	Name() string
	Malloc(t *sim.Thread, size uint32) (uint64, error)
	Free(t *sim.Thread, mem uint64) error

	// AttachThread and DetachThread maintain the active-thread registry
	// behind the shared-state tax; benchmark workers bracket their run with
	// them (a thread that never attaches still works, it just is not
	// counted toward sharing).
	AttachThread(t *sim.Thread)
	DetachThread(t *sim.Thread)

	Arenas() []*heap.Arena
	AddressSpace() *vm.AddressSpace
	Stats() Stats
	Check() error
}

// base carries the machinery common to all variants: the arena list, the
// per-thread tables, the counters, and the op frame every kind runs.
type base struct {
	// kind is the design built around this base (the struct embedding it),
	// asked by the frame for everything that differs between designs.
	kind   design
	name   string
	as     *vm.AddressSpace
	params heap.Params
	costs  CostParams

	arenas   []*heap.Arena
	listLock *sim.Mutex

	// Line-aware placement: lineAware records that params align chunks to
	// at least a cache line; quantBase is the same params at the 8-byte
	// baseline, so noteQuant can price what the alignment costs each
	// allocation.
	lineAware bool
	quantBase heap.Params

	// attached and lastArena are keyed by sim thread ID (see denseTable).
	attached denseTable[bool]
	active   int

	lastArena denseTable[*heap.Arena]
	// own is the table of each thread's own arena: the one whose metadata
	// the per-op main-arena slosh bills, and the one a free counts as
	// crossing from. A design points it at lastArena or at its private
	// arenas; nil makes the main arena every thread's own.
	own *denseTable[*heap.Arena]

	stats Stats
	// mallocs and frees count the user operations below the mmap threshold
	// that succeeded; Stats reports them as Heap.Mallocs/Frees, because the
	// arena counters of a caching design also count batch refills and miss
	// parked frees.
	mallocs, frees uint64

	// scav is the reclamation engine (internal/scavenge), nil unless a
	// design with parking tiers opted in with ScavengeInterval.
	scav *scavenge.Scavenger

	// Memory-pressure state (pressure.go): level is the degradation gauge
	// (0 calm, 1 magazine marks clamped, 2 reuse parking off too) and
	// calmAt the virtual time at which it clears.
	level  int
	calmAt sim.Time

	// tel is the attached telemetry recorder, nil when telemetry is off:
	// every recording site nil-checks, so the disabled cost is one branch.
	// muted silences op recording while the emergency cascade reruns an
	// operation, so the retried op is attributed once, to the emergency
	// tier, instead of to whichever tier the retry happened to hit.
	tel   *telemetry.Recorder
	muted bool

	// deferredErr holds the first error from a context that cannot
	// propagate one (scavenge passes, magazine re-homing, detach flushes).
	// Check() reports it: the failure surfaces at the next consistency
	// gate instead of tearing the simulation down mid-pass.
	deferredErr error
}

// design is what one allocator kind supplies to the op frame. base itself
// implements every method — a malloc locks the one main arena, a full arena
// has nowhere to fall over to, a free is routed to its owning arena, nothing
// is cached — so a design embeds base and overrides only where it differs;
// method promotion supplies the rest.
type design interface {
	// lockArena returns the locked arena a below-threshold malloc carves.
	lockArena(t *sim.Thread) (*heap.Arena, error)
	// fallover serves a malloc that arena full refused with err.
	fallover(t *sim.Thread, full *heap.Arena, size uint32, err error) (uint64, error)
	// freeArena finds the arena owning mem.
	freeArena(t *sim.Thread, mem uint64) (*heap.Arena, error)

	// allocate serves a below-threshold malloc (sz is its chunk size) and
	// reports the tier that served it; the default is the arena path built
	// from lockArena and fallover.
	allocate(t *sim.Thread, size, sz uint32) (uint64, telemetry.Tier, error)
	// deallocate frees mem and reports its size class (0 when the design
	// does not class chunks) and the tier the free reached; the default
	// unmaps mmapped chunks and frees the rest into freeArena's arena.
	deallocate(t *sim.Thread, mem uint64) (uint32, telemetry.Tier, error)
	// reclaim runs one emergency cascade pass at the given pressure level
	// (escalated: the level just rose).
	reclaim(t *sim.Thread, level int, escalated bool)
	// addStats adds the design's own tiers to s; check verifies them.
	addStats(s *Stats)
	check() error
}

// init builds the base of design kind: the main arena, line-aware params and
// the reuse tier.
func (b *base) init(t *sim.Thread, kind design, name string, as *vm.AddressSpace, params heap.Params, costs CostParams) error {
	*b = base{
		kind:     kind,
		name:     name,
		as:       as,
		params:   params,
		costs:    costs,
		listLock: as.Machine().NewMutex(name + ".list"),
	}
	if params.Align >= cache.LineSize {
		// Line-quantized carving: a line-sized Align makes Request2Size
		// round every class to a line multiple and the arenas line-align
		// the first chunk, so every chunk boundary — arena- or buddy-carved
		// — lands on a line boundary. quantBase keeps the 8-byte baseline so
		// the overhead is priced per allocation.
		b.quantBase = params
		b.quantBase.Align = heap.AlignMask + 1
		b.lineAware = true
	}
	if costs.MmapReuseCap > 0 {
		as.SetMmapReuse(uint64(costs.MmapReuseCap))
	}
	main, err := heap.NewMain(t, as, &b.params)
	if err != nil {
		return fmt.Errorf("malloc: creating main arena: %w", err)
	}
	b.arenas = []*heap.Arena{main}
	return nil
}

func (b *base) Name() string                   { return b.name }
func (b *base) Arenas() []*heap.Arena          { return b.arenas }
func (b *base) AddressSpace() *vm.AddressSpace { return b.as }
func (b *base) frame() *base                   { return b }

func (b *base) AttachThread(t *sim.Thread) {
	if !b.attached.get(t.ID()) {
		b.attached.set(t.ID(), true)
		b.active++
	}
}

func (b *base) DetachThread(t *sim.Thread) {
	if b.attached.get(t.ID()) {
		b.attached.set(t.ID(), false)
		b.active--
	}
}

// Malloc allocates size bytes. An out-of-memory failure runs the emergency
// cascade and retries (pressure.go) before it reaches the caller.
func (b *base) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	start := b.calm(t)
	mem, err := b.malloc(t, size)
	if err != nil && IsNoMem(err) {
		return b.rescue(t, size, err, start)
	}
	return mem, err
}

// malloc is one unguarded malloc: the frame around the design's allocate.
func (b *base) malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	b.opCharge(t)
	if b.scav != nil {
		b.scavenge(t)
	}
	sz := b.params.Request2Size(size)
	var mem uint64
	tier := telemetry.TierVM
	var err error
	if sz >= heap.MmapThreshold {
		b.stats.MmapDirect++
		mem, err = b.arenas[0].MmapChunk(t, size)
	} else {
		b.noteQuant(size)
		mem, tier, err = b.kind.allocate(t, size, sz)
	}
	if err != nil {
		return 0, err
	}
	if tier != telemetry.TierVM {
		b.mallocs++
	}
	b.telOp(t, telemetry.OpMalloc, sz, tier, start)
	return mem, nil
}

// Free releases mem. It is never retried: a free needs no memory.
func (b *base) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	b.opCharge(t)
	if b.scav != nil {
		b.scavenge(t)
	}
	class, tier, err := b.kind.deallocate(t, mem)
	if err != nil {
		return err
	}
	if tier != telemetry.TierVM {
		b.frees++
	}
	b.telOp(t, telemetry.OpFree, class, tier, start)
	return nil
}

// Stats returns aggregated statistics. The arena sums go through one path,
// heap.Stats.Add, so a counter added to the heap layer cannot be silently
// dropped from the allocator-level aggregate. Heap.Mallocs/Frees report
// user-level operation counts (the raw per-arena numbers stay available
// through Arenas()).
func (b *base) Stats() Stats {
	s := b.stats
	s.ArenaCount = len(b.arenas)
	s.PressureLevel = b.level
	for _, a := range b.arenas {
		s.ArenaLockAcqs += a.Lock.Acquisitions
		s.Heap.Add(a.Stats())
	}
	s.Heap.Mallocs, s.Heap.Frees = b.mallocs, b.frees
	if b.scav != nil {
		sc := b.scav.Stats()
		s.ScavengeEpochs = sc.Epochs
		s.ScavengeBytes = sc.BytesReleased
	}
	b.kind.addStats(&s)
	return s
}

// Check surfaces any deferred error, then verifies every arena and the
// design's own tiers.
func (b *base) Check() error {
	if b.deferredErr != nil {
		return fmt.Errorf("malloc: deferred error: %w", b.deferredErr)
	}
	for _, a := range b.arenas {
		if err := a.Check(); err != nil {
			return fmt.Errorf("arena %d: %w", a.Index, err)
		}
	}
	return b.kind.check()
}

// Scavenger returns the allocator's reclamation engine, nil when scavenging
// is disabled. The bench harness uses it to run the background scavenger
// thread and to force passes at phase boundaries.
func (b *base) Scavenger() *scavenge.Scavenger { return b.scav }

// base's answers to the design interface: every malloc locks the main
// arena, a full one has nowhere to fall over to, and a free routes to the
// owning arena, counting frees that cross from the caller's own.

func (b *base) lockArena(t *sim.Thread) (*heap.Arena, error) {
	t.Lock(b.arenas[0].Lock)
	return b.arenas[0], nil
}

func (b *base) fallover(_ *sim.Thread, _ *heap.Arena, _ uint32, err error) (uint64, error) {
	return 0, err
}

func (b *base) freeArena(t *sim.Thread, mem uint64) (*heap.Arena, error) {
	a, err := b.routeFree(t, mem)
	if own := b.ownArena(t); err == nil && own != nil && own != a {
		b.stats.CrossArenaFrees++
	}
	return a, err
}

// allocate is the arena path: the instruction work is charged inside the
// critical section, as the whole path of a libc malloc runs under the
// arena lock (which is exactly why a single lock convoys on SMP).
func (b *base) allocate(t *sim.Thread, size, _ uint32) (uint64, telemetry.Tier, error) {
	a, err := b.kind.lockArena(t)
	if err != nil {
		return 0, 0, err
	}
	t.Charge(sim.Time(b.costs.WorkMalloc))
	mem, err := a.Malloc(t, size)
	t.Unlock(a.Lock)
	b.lastArena.set(t.ID(), a)
	if err != nil {
		mem, err = b.kind.fallover(t, a, size, err)
	}
	return mem, telemetry.TierArena, err
}

func (b *base) deallocate(t *sim.Thread, mem uint64) (uint32, telemetry.Tier, error) {
	if b.arenas[0].IsMmappedMem(t, mem) {
		return 0, telemetry.TierVM, b.arenas[0].FreeMmapChunk(t, mem)
	}
	a, err := b.kind.freeArena(t, mem)
	if err != nil {
		return 0, 0, err
	}
	t.Lock(a.Lock)
	t.Charge(sim.Time(b.costs.WorkFree))
	err = a.Free(t, mem)
	t.Unlock(a.Lock)
	return 0, telemetry.TierArena, err
}

func (b *base) addStats(*Stats) {}
func (b *base) check() error    { return nil }

// opCharge bills the per-op shared-state taxes for one operation by t.
func (b *base) opCharge(t *sim.Thread) {
	b.stats.Ops++
	c := int64(0)
	if s := b.active; s >= 2 && b.costs.SharedTaxUnit > 0 {
		c += b.costs.SharedTaxUnit * int64(s-1) / int64(s)
		if a := b.ownArena(t); a != nil && a.IsMain && s >= 3 && b.costs.MainArenaSloshUnit > 0 {
			c += b.costs.MainArenaSloshUnit * int64(s-2)
		}
	}
	t.Charge(sim.Time(c))
	// Every op passes through here exactly once, so this is the one
	// sampling tick the time series needs. MaybeSample never charges
	// cycles, so the tick is invisible to the simulation.
	b.tel.MaybeSample(t)
}

// scavenge is the inline scavenge hook: every op of a design with a
// scavenger calls it once, and it runs a decay pass on the caller when the
// epoch boundary has passed. Free ride for busy phases; idle phases rely on
// Background.
func (b *base) scavenge(t *sim.Thread) {
	start := t.Now()
	if b.scav.Tick(t) {
		// A pass ran: trace it, and give the time series a point right
		// after the reclaim (the footprint gauges just moved).
		b.tel.Span(t, "scavenge pass", "scavenge", start)
		b.tel.MaybeSample(t)
	}
}

// ownArena returns t's own arena (see base.own), nil before it has one.
func (b *base) ownArena(t *sim.Thread) *heap.Arena {
	if b.own == nil {
		return b.arenas[0]
	}
	return b.own.get(t.ID())
}

// telOp records one completed operation with the telemetry recorder,
// unless telemetry is off or the emergency cascade has muted attribution.
func (b *base) telOp(t *sim.Thread, kind telemetry.OpKind, class uint32, tier telemetry.Tier, start sim.Time) {
	if b.tel == nil || b.muted {
		return
	}
	b.tel.Op(t, kind, class, tier, start)
}

// routeFree finds the arena owning mem. The pointer arithmetic glibc uses
// (heap_for_ptr) is O(1); the Go-side scan stands in for it, and the cost
// is one TSD-scale read.
func (b *base) routeFree(t *sim.Thread, mem uint64) (*heap.Arena, error) {
	t.Charge(sim.Time(b.costs.TSDRead))
	c := mem - heap.HeaderSz
	for _, a := range b.arenas {
		if a.Contains(c) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("%w: 0x%x not in any arena", heap.ErrBadFree, mem)
}

// grow appends a fresh sub-arena, its mappings bound to node (-1: first
// touch), to the arena list. The caller holds listLock.
func (b *base) grow(t *sim.Thread, node int) (*heap.Arena, error) {
	a, err := heap.NewSubOnNode(t, b.as, &b.params, len(b.arenas), node)
	if err != nil {
		return nil, fmt.Errorf("malloc: creating arena: %w", err)
	}
	b.arenas = append(b.arenas, a)
	b.stats.ArenaCreations++
	return a, nil
}

// mallocOn carves size bytes from a under its lock, with no instruction
// work charged (a fall-over's caller already paid it), and makes a the
// caller's last arena on success.
func (b *base) mallocOn(t *sim.Thread, a *heap.Arena, size uint32) (uint64, error) {
	t.Lock(a.Lock)
	mem, err := a.Malloc(t, size)
	t.Unlock(a.Lock)
	if err == nil {
		b.lastArena.set(t.ID(), a)
	}
	return mem, err
}

// noteQuant records the internal fragmentation one allocation pays for line
// quantization: the chunk-size delta between the line-aware params and the
// 8-byte baseline. No-op below a line-sized alignment.
func (b *base) noteQuant(size uint32) {
	if b.lineAware {
		b.stats.LineQuantBytes += uint64(b.params.Request2Size(size) - b.quantBase.Request2Size(size))
	}
}

// recordErr stashes the first error from a path with no caller to return it
// to; Check reports it.
func (b *base) recordErr(err error) {
	if err != nil && b.deferredErr == nil {
		b.deferredErr = err
	}
}
