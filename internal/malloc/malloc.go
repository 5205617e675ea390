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
//     lock-free and cost CacheHit cycles. Each class's high-water mark is
//     adaptive by default (CacheAdaptive): it starts at CacheBatch, grows by
//     a batch after CacheGrowStreak consecutive lock-free hits, shrinks by a
//     batch whenever the class flushes, and is clamped to [CacheBatch,
//     CacheHigh]. Tier 2 is the depot: a shared per-size-class store of
//     chunk spans. Magazine misses try it (DepotXfer cycles plus the class's
//     lock or CAS) before touching the backend, and magazine flushes and
//     detaches donate whole spans to it, so cross-thread free traffic
//     becomes one depot exchange instead of N arena-lock frees. Each depot
//     class parks at most DepotCapBytes; overflow falls through to tier 3,
//     the CPU-bounded shared arena pool.
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
// All variants serve requests at or above the mmap threshold from dedicated
// anonymous mappings, as glibc does ("mmap() for allocation requests larger
// than 32 pages"). A fourth, orthogonal tier lives in the vm layer: the
// mmap-region reuse cache (MmapReuseCap bytes, MmapReuseWork cycles per
// operation) parks munmapped above-threshold regions — pages intact — on a
// bounded size-bucketed list and re-hands them out without a syscall or
// fresh first-touch faults. ThreadCache enables it by default
// (DefaultMmapReuseCap); the paper's designs leave it off so their measured
// syscall and fault counts stay faithful. Stats reports all tiers:
// Depot{Hits,Misses,Donates,Overflows,Chunks,Bytes}, CachedBytes,
// CacheMark{Grows,Shrinks}, ArenaLockAcqs, and MmapReuses/MmapReuseBytes.
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
// past ScavengeTrimPad is handed back madvise(DONTNEED)-style — the region
// stays mapped and the next touch pays the refault cost. The binned and trim
// stages skip arenas with a malloc/free since the cutoff, so a mid-burst
// arena is never forced into a madvise/refault ping-pong. Experiment D3
// measures the result: burst footprint decays during idle phases while the
// post-idle burst keeps its throughput. Stats carries the whole story in
// the Scavenge* counters plus PagesReleased/Refaults.
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
// faults, memory-served misses and hand-outs, mirrored into Stats as
// RemoteAccesses/RemoteAccessCycles/RemoteFaults). Experiment D4 compares
// node-blind and node-sharded placement across 1/2/4-node machines; on one
// node both configurations are the same single-shard code path and every
// paper-era number is unchanged.
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

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// CostParams holds the allocator-level instruction costs in cycles plus the
// thread-cache tuning knobs; the memory traffic underneath is charged by the
// heap/vm/cache layers.
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

	// Thread-cache (KindThreadCache) knobs. Zero values take the defaults
	// applied by NewThreadCache, so profiles that predate the design keep
	// working unchanged.
	CacheHit    int64  // lock-free cache pop/push
	CacheRefill int64  // fixed overhead per batch refill (on top of WorkMalloc)
	CacheFlush  int64  // fixed overhead per batch flush (on top of WorkFree)
	CacheBatch  int    // chunks pulled from the arena per refill
	CacheHigh   int    // per-class high-water mark (the cap under adaptive sizing)
	CacheMax    uint32 // largest chunk size served from the cache

	// Central transfer cache (the depot between thread magazines and the
	// page backend). Zero values take NewThreadCache defaults.
	DepotXfer int64 // cycles per depot span exchange, on top of the lock or CAS
	// DepotCapBytes bounds the bytes parked in each depot class
	// (DefaultDepotCapBytes when 0). A byte cap, not a span count: shrunken
	// adaptive marks donate small spans, which a count limit would refuse
	// while parking almost nothing. < 0 disables the depot entirely (PR-1
	// behaviour: flushes free chunk by chunk into arenas).
	DepotCapBytes int64

	// Adaptive magazine sizing (tcmalloc's slow start). CacheAdaptive >= 0
	// grows each class's high-water mark on consecutive-hit streaks and
	// shrinks it on flush pressure, between CacheBatch and CacheHigh;
	// CacheAdaptive < 0 pins every mark at CacheHigh (the PR-1 fixed mark).
	CacheAdaptive   int
	CacheGrowStreak int // consecutive lock-free hits that grow a class's mark

	// Mmap-region reuse cache (shared vm tier). MmapReuseCap is the byte cap
	// on parked regions: 0 leaves the cache off for designs that predate it
	// (the paper's allocators), NewThreadCache defaults it on; < 0 disables
	// it explicitly.
	MmapReuseCap  int64
	MmapReuseWork int64 // cycles per reuse-cache park/lookup

	// Scavenger (internal/scavenge): epoch-driven decay of idle parked
	// memory across all tiers. ScavengeInterval is the epoch length in
	// cycles; 0 or negative leaves the scavenger off (the default — the
	// paper's designs and PR-2 behaviour are unchanged unless a profile or
	// experiment opts in).
	ScavengeInterval int64
	// ScavengeDecay is the percentage of an idle tier's parked memory
	// released per epoch (clamped to [1, 100]; 0 takes the default).
	ScavengeDecay int
	// ScavengeTrimPad is the number of bytes each arena keeps resident at
	// its top when the scavenger trims (malloc_trim's pad; 0 takes the
	// default, < 0 means no pad).
	ScavengeTrimPad int64
	ScavengeWork    int64 // fixed cycles charged per scavenge pass
	// ScavengeMinBinBytes enables the PageHeap-style binned-chunk release
	// stage (Arena.ReleaseBinned): a free chunk idle for a full epoch has the
	// whole pages strictly inside it handed back to the kernel, provided at
	// least this many bytes are releasable — below that the madvise is not
	// worth its syscall. 0 (the default) leaves the stage off, so D1/D2 and
	// every pre-existing profile measure exactly what they did before.
	ScavengeMinBinBytes int64
	// ScavengeBinPad is the binned analogue of ScavengeTrimPad: each arena
	// keeps up to this many bytes of binned-chunk interior resident, biggest
	// cold chunks released first, so the next burst's best-fit refill carves
	// warm memory before it ever touches a released page (0 takes the
	// default, < 0 keeps no pad).
	ScavengeBinPad int64

	// NUMANodeBlind disables node-aware placement on multi-node machines:
	// one flat arena pool with first-touch mappings, a single depot, no
	// remote-free routing and no reuse-cache node preference — exactly the
	// pre-NUMA thread cache, kept as experiment D4's baseline. On a 1-node
	// machine the sharded and blind paths are the same code with one shard,
	// so the flag has no effect there.
	NUMANodeBlind bool

	// LineAware makes placement cache-line-aware, the experiment D9 dimension.
	// Chunk sizes are quantized up to cache-line multiples (heap.Params.Align
	// is raised to the vm cache model's line size), so a chunk carved by any
	// arena or by the buddy backend owns its payload lines outright and two
	// magazines never split a line — through every tier, because magazines,
	// depots and the service shelf exchange chunks whole. Buddy-backed spans
	// additionally get a per-magazine color offset (the first-chunk origin
	// rotates by line-size strides per carving thread) so hot head chunks of
	// different threads' spans don't collide in the same cache index sets.
	// The price is internal fragmentation, reported honestly in
	// Stats.LineQuantBytes (cumulative quantization overhead) and
	// Stats.LineColorBytes (bytes currently lost to color offsets). Off by
	// default: placement, charge sequences and the D1-D6/D10 goldens are
	// bit-identical.
	LineAware bool
}

// DefaultMmapReuseCap is the parked-bytes cap NewThreadCache applies when
// MmapReuseCap is zero: a few above-threshold regions, bounded so the RSS
// the cache holds back from the kernel stays honest.
const DefaultMmapReuseCap = 4 << 20

// DefaultDepotCapBytes is the per-class byte cap NewThreadCache applies when
// DepotCapBytes is zero: about eight spans of CacheBatch default-sized
// chunks, counted in bytes so small spans from shrunken adaptive marks fit.
const DefaultDepotCapBytes = 64 << 10

// DefaultScavengeTrimPad is the per-arena resident pad NewThreadCache keeps
// at each top chunk when ScavengeTrimPad is zero.
const DefaultScavengeTrimPad = 64 << 10

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
		SharedTaxUnit: 0,
		CacheHit:      15,
		CacheRefill:   60,
		CacheFlush:    60,
		CacheBatch:    16,
		CacheHigh:     64,
		CacheMax:      32 * 1024,

		DepotXfer:       45,
		DepotCapBytes:   DefaultDepotCapBytes,
		CacheGrowStreak: 64,
		MmapReuseWork:   30,
		// MmapReuseCap stays 0: only designs that opt in (NewThreadCache
		// defaults it to DefaultMmapReuseCap) enable the reuse tier, so the
		// paper's allocators keep their measured syscall and fault counts.

		// ScavengeInterval stays 0: reclamation is opt-in, so every
		// throughput experiment (D1/D2) measures exactly what it did before
		// the subsystem existed. D3 and production profiles turn it on.
		ScavengeDecay:   50,
		ScavengeTrimPad: DefaultScavengeTrimPad,
		ScavengeWork:    120,
	}
}

// Stats aggregates allocator-level counters.
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
	// Mmap-region reuse counters, mirrored from the address space.
	MmapReuses      uint64 // above-threshold regions served without a syscall
	MmapReuseBytes  uint64 // cumulative bytes served from the reuse cache
	MmapReuseParked uint64 // bytes parked in the reuse cache right now
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
	// Page-residency mirrors from the address space.
	PagesReleased uint64 // pages handed back by ReleasePages — top trim and binned release (cumulative)
	Refaults      uint64 // faults on pages the scavenger had released
	// NUMA counters (all zero on 1-node machines).
	RemoteFrees uint64 // frees of chunks owned by another node's arena (routed home, Hoard-style)
	RemoteBytes uint64 // bytes those remote frees covered
	// Remote-access mirrors from the address space: the cross-node events
	// (faults, refaults, memory misses, reuse hand-outs), the extra cycles
	// they paid — the currency experiment D4 compares placements in — and
	// the fault subset.
	RemoteAccesses     uint64
	RemoteAccessCycles uint64
	RemoteFaults       uint64
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
	SvcRoutedSpans  uint64 // remote flush pieces posted straight into the owning node's mailbox
	SvcPrefetches   uint64 // spans prefetched into mailboxes ahead of demand
	SvcParkedChunks int    // chunks parked in mailboxes right now
	SvcParkedBytes  uint64 // bytes parked in mailboxes right now
	// Buddy page-backend counters (the lock-free kinds; mirrors heap.BuddyStats).
	BuddyAllocs    uint64 // block allocations served by the buddy
	BuddyFrees     uint64 // whole blocks returned to the buddy
	BuddySplits    uint64 // block splits on the alloc path
	BuddyMerges    uint64 // buddy coalesces on the free path
	BuddyGrowLocks uint64 // grow-lock acquisitions (the only locked buddy path)
	// Memory-pressure counters (pressure.go; all zero unless a commit limit
	// or fault injection makes an allocation fail).
	EmergencyScavenges uint64 // emergency reclamation cascade passes run
	EmergencyBytes     uint64 // bytes those passes shed (all tiers)
	OOMRetries         uint64 // allocations retried after a cascade pass
	OOMFails           uint64 // allocations that still failed after the last retry
	// PressureLevel is a gauge, not a counter: 0 calm, 1 an emergency pass
	// ran recently (magazine marks clamped), 2 sustained pressure (reuse
	// parking disabled too). It decays back to 0 once allocations stop
	// failing for a pressure window.
	PressureLevel int
	// Commit-limit mirrors from the address space (vm.SetMemLimit).
	CommittedBytes uint64 // mapped-minus-released bytes charged right now
	PeakCommitted  uint64 // high-water mark of CommittedBytes
	CommitFails    uint64 // grows/commits refused by the limit
	InjectedFaults uint64 // grows refused by fault injection instead
	// Line-aware placement counters (CostParams.LineAware; all zero blind).
	// LineQuantBytes is the cumulative internal fragmentation added by
	// rounding chunk sizes to line multiples — the memory half of the D9
	// tradeoff. The color fields are gauges over live colored spans.
	LineQuantBytes uint64 // extra bytes per malloc from line quantization (cumulative)
	LineColorBytes uint64 // bytes currently sacrificed to span color offsets
	LineColorSpans uint64 // buddy spans currently carrying a color offset
	// Cache fill-class mirrors from the address space: every data access
	// split by where the line came from. FillC2C — lines supplied dirty by
	// another CPU — is the coherence-transfer currency experiment D9
	// compares placements in.
	FillLocal        uint64 // hits and upgrades: no data moved
	FillLocalCycles  uint64
	FillRemote       uint64 // misses served from memory (cold or clean)
	FillRemoteCycles uint64
	FillC2C          uint64 // cache-to-cache transfers from another CPU's dirty copy
	FillC2CCycles    uint64
	ArenaCount       int
	Heap             heap.Stats // summed over arenas
}

// Allocator is the public allocator interface: the system malloc/free pair
// plus introspection used by benchmarks and tests.
type Allocator interface {
	Name() string
	Malloc(t *sim.Thread, size uint32) (uint64, error)
	Free(t *sim.Thread, mem uint64) error
	// Realloc resizes mem to size with C realloc semantics: Realloc(0, n)
	// allocates, Realloc(p, 0) frees and returns 0.
	Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error)
	// Calloc allocates size bytes of zeroed memory.
	Calloc(t *sim.Thread, size uint32) (uint64, error)

	// AttachThread and DetachThread maintain the active-thread registry
	// behind the shared-state tax; benchmark workers bracket their run with
	// them (a thread that never attaches still works, it just is not
	// counted toward sharing).
	AttachThread(t *sim.Thread)
	DetachThread(t *sim.Thread)

	// CurrentArena reports which arena the thread last allocated from
	// (nil if none); used by reports and tests.
	CurrentArena(t *sim.Thread) *heap.Arena

	Arenas() []*heap.Arena
	AddressSpace() *vm.AddressSpace
	Stats() Stats
	Check() error
}

// base carries the machinery common to all variants.
type base struct {
	name   string
	as     *vm.AddressSpace
	params heap.Params
	costs  CostParams

	arenas   []*heap.Arena
	listLock *sim.Mutex

	// Line-aware placement (CostParams.LineAware): lineAware records that
	// newBase raised params.Align to the cache line size; quantBase keeps
	// the pre-raise params so noteQuant can price what the raise costs each
	// allocation.
	lineAware bool
	quantBase heap.Params

	// attached and lastArena are keyed by sim thread ID (see denseTable).
	attached denseTable[bool]
	active   int

	lastArena denseTable[*heap.Arena]

	stats Stats

	// tel is the attached telemetry recorder, nil when telemetry is off:
	// every recording site nil-checks, so the disabled cost is one branch.
	// telSuppress mutes op recording while the emergency cascade reruns an
	// operation, so the retried op is attributed once, to the emergency
	// tier, instead of to whichever tier the retry happened to hit.
	tel         *telemetry.Recorder
	telSuppress bool

	// deferredErr holds the first error from a context that cannot
	// propagate one (scavenge passes, magazine re-homing, detach flushes).
	// Check() reports it: the failure surfaces at the next consistency
	// gate instead of tearing the simulation down mid-pass.
	deferredErr error
}

func newBase(t *sim.Thread, name string, as *vm.AddressSpace, params heap.Params, costs CostParams) (*base, error) {
	b := &base{
		name:     name,
		as:       as,
		params:   params,
		costs:    costs,
		listLock: as.Machine().NewMutex(name + ".list"),
	}
	if costs.LineAware {
		// Line-quantized carving: raising Align to the line size makes
		// Request2Size round every class to a line multiple and the arenas
		// line-align the first chunk, so every chunk boundary — arena- or
		// buddy-carved — lands on a line boundary. quantBase keeps the blind
		// params so the overhead is priced per allocation.
		b.quantBase = b.params
		if ls := uint32(as.LineSize()); b.params.Align < ls {
			b.params.Align = ls
		}
		b.lineAware = true
	}
	if costs.MmapReuseCap > 0 {
		as.SetMmapReuse(uint64(costs.MmapReuseCap), costs.MmapReuseWork)
	}
	main, err := heap.NewMain(t, as, &b.params)
	if err != nil {
		return nil, fmt.Errorf("malloc: creating main arena: %w", err)
	}
	b.arenas = []*heap.Arena{main}
	return b, nil
}

func (b *base) Name() string                   { return b.name }
func (b *base) Arenas() []*heap.Arena          { return b.arenas }
func (b *base) AddressSpace() *vm.AddressSpace { return b.as }

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

func (b *base) CurrentArena(t *sim.Thread) *heap.Arena {
	return b.lastArena.get(t.ID())
}

// opCharge bills the fixed instruction work plus the shared-state taxes for
// one operation by t whose current arena is a.
func (b *base) opCharge(t *sim.Thread, work int64, a *heap.Arena) {
	b.stats.Ops++
	c := work
	if s := b.active; s >= 2 && b.costs.SharedTaxUnit > 0 {
		c += b.costs.SharedTaxUnit * int64(s-1) / int64(s)
		if a != nil && a.IsMain && s >= 3 && b.costs.MainArenaSloshUnit > 0 {
			c += b.costs.MainArenaSloshUnit * int64(s-2)
		}
	}
	t.Charge(sim.Time(c))
	// Every design funnels each op through here exactly once, so this is
	// the one sampling tick the time series needs. MaybeSample never
	// charges cycles, so the tick is invisible to the simulation.
	b.tel.MaybeSample(t)
}

// telOp records one completed operation with the telemetry recorder,
// unless telemetry is off or the emergency cascade has muted attribution.
func (b *base) telOp(t *sim.Thread, kind telemetry.OpKind, class uint32, tier telemetry.Tier, start sim.Time) {
	if b.tel == nil || b.telSuppress {
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

// mmapPath serves size from a dedicated mapping when it crosses the
// threshold. Returns (0, nil, false) when the ordinary path should run.
func (b *base) mmapPath(t *sim.Thread, size uint32) (uint64, error, bool) {
	if b.params.MmapThreshold != 0 && b.params.Request2Size(size) >= b.params.MmapThreshold {
		b.stats.MmapDirect++
		p, err := b.arenas[0].MmapChunk(t, size)
		return p, err, true
	}
	return 0, nil, false
}

// freeIfMmapped releases mem when it is an mmapped chunk.
func (b *base) freeIfMmapped(t *sim.Thread, mem uint64) (bool, error) {
	if b.arenas[0].IsMmappedMem(t, mem) {
		return true, b.arenas[0].FreeMmapChunk(t, mem)
	}
	return false, nil
}

// sumStats collects allocator- and arena-level statistics. The vm mirrors
// and the arena sums each go through one path — mirrorVMStats and
// heap.Stats.Add — so a counter added to either layer cannot be silently
// dropped from the allocator-level aggregate (the fate of the pre-Add
// hand-written field list).
func (b *base) sumStats() Stats {
	s := b.stats
	s.ArenaCount = len(b.arenas)
	mirrorVMStats(&s, b.as.Stats())
	for _, a := range b.arenas {
		s.ArenaLockAcqs += a.Lock.Acquisitions
		s.Heap.Add(a.Stats())
	}
	return s
}

// mirrorVMStats copies the address-space counters that Stats re-exports at
// the allocator level: the reuse-cache tier, page residency, and the
// cross-node access charges.
func mirrorVMStats(s *Stats, vs vm.Stats) {
	s.MmapReuses = vs.MmapReuses
	s.MmapReuseBytes = vs.MmapReuseBytes
	s.MmapReuseParked = vs.MmapReuseParked
	s.PagesReleased = vs.PagesReleased
	s.Refaults = vs.Refaults
	s.RemoteAccesses = vs.RemoteAccesses
	s.RemoteAccessCycles = vs.RemoteAccessCycles
	s.RemoteFaults = vs.RemoteFaults
	s.CommittedBytes = vs.CommittedBytes
	s.PeakCommitted = vs.PeakCommitted
	s.CommitFails = vs.CommitFails
	s.InjectedFaults = vs.InjectedFaults
	s.FillLocal = vs.FillLocal
	s.FillLocalCycles = vs.FillLocalCycles
	s.FillRemote = vs.FillRemote
	s.FillRemoteCycles = vs.FillRemoteCycles
	s.FillC2C = vs.FillC2C
	s.FillC2CCycles = vs.FillC2CCycles
}

// noteQuant records the internal fragmentation one allocation pays for line
// quantization: the chunk-size delta between the line-aware params and the
// blind params the design would otherwise run. No-op when LineAware is off.
func (b *base) noteQuant(size uint32) {
	if b.lineAware {
		b.stats.LineQuantBytes += uint64(b.params.Request2Size(size) - b.quantBase.Request2Size(size))
	}
}

// reallocOn implements realloc for a variant: al provides the Malloc/Free
// entry points (so policy like arena selection applies to moves), b the
// shared routing.
func reallocOn(al Allocator, b *base, t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	switch {
	case mem == 0:
		return al.Malloc(t, size)
	case size == 0:
		return 0, al.Free(t, mem)
	}
	t.MaybeYield()
	// Mmapped chunks live outside every arena's segments; chunk-format
	// operations on them go through the main arena by convention.
	ref := b.arenas[0]
	if ref.IsMmappedMem(t, mem) {
		// Mmapped chunks move: a fresh allocation, a copy, a munmap.
		oldUs := ref.UsableSize(t, mem)
		np, err := al.Malloc(t, size)
		if err != nil {
			return 0, err
		}
		n := size
		if oldUs < n {
			n = oldUs
		}
		ref.CopyPayload(t, np, mem, n)
		return np, al.Free(t, mem)
	}
	a, err := b.routeFree(t, mem)
	if err != nil {
		return 0, err
	}
	t.Lock(a.Lock)
	np, ok, rerr := a.ReallocInPlace(t, mem, size)
	t.Unlock(a.Lock)
	if rerr != nil {
		return 0, rerr
	}
	if ok {
		return np, nil
	}
	// In-place resize impossible: move through the allocator's ordinary
	// policy, so oversized requests still become anonymous mappings. Size
	// reads and the copy go through the owning arena, so the coherence
	// charges land on that arena's cache lines.
	oldUs := a.UsableSize(t, mem)
	np, err = al.Malloc(t, size)
	if err != nil {
		return 0, fmt.Errorf("realloc: %w", err)
	}
	n := size
	if oldUs < n {
		n = oldUs
	}
	a.CopyPayload(t, np, mem, n)
	return np, al.Free(t, mem)
}

// callocOn implements calloc for a variant. Zeroing is routed through the
// arena that owns the fresh chunk (mmapped chunks zero via the main arena),
// so the memory traffic is charged against the right arena's lines.
func callocOn(al Allocator, b *base, t *sim.Thread, size uint32) (uint64, error) {
	p, err := al.Malloc(t, size)
	if err != nil {
		return 0, err
	}
	ref := b.arenas[0]
	if !ref.IsMmappedMem(t, p) {
		if a, rerr := b.routeFree(t, p); rerr == nil {
			ref = a
		}
	}
	ref.Memzero(t, p, size)
	return p, nil
}

// recordErr stashes the first error from a path with no caller to return it
// to; checkAll reports it.
func (b *base) recordErr(err error) {
	if err != nil && b.deferredErr == nil {
		b.deferredErr = err
	}
}

// checkAll verifies every arena and surfaces any deferred error.
func (b *base) checkAll() error {
	if b.deferredErr != nil {
		return fmt.Errorf("malloc: deferred error: %w", b.deferredErr)
	}
	for _, a := range b.arenas {
		if err := a.Check(); err != nil {
			return fmt.Errorf("arena %d: %w", a.Index, err)
		}
	}
	return nil
}
