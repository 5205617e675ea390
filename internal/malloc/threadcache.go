package malloc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// ThreadCache is the magazine-style design later allocators (Hoard,
// tcmalloc, SpeedMalloc) converged on: every thread owns a size-classed
// free-list cache sitting in front of a small shared arena pool.
//
//   - malloc pops from the caller's local cache with zero locking; a miss
//     first tries the depot (one span under one class lock or CAS), and
//     only a depot miss refills a batch of cacheBatch chunks from the page
//     backend;
//   - free pushes onto the local cache without touching any lock, wherever
//     the chunk's owning arena is — the cross-thread frees that make
//     benchmark 2 hammer foreign arena locks in ptmalloc are simply parked
//     locally, and donated to the depot in whole spans only when a class
//     crosses its high-water mark (arena-grouped frees remain the fallback
//     when the depot is full or disabled);
//   - per-class high-water marks are adaptive by default: they slow-start
//     at one batch, grow on consecutive-hit streaks and shrink on flush
//     pressure, bounded by cacheHigh;
//   - the arena pool is capped at the machine's CPU count (threads map onto
//     home arenas round-robin), so T threads cost min(T, CPUs) arenas
//     instead of PerThread's T.
//
// On a multi-node machine the pool and the depot are sharded by NUMA node
// (unless NUMANodeBlind opts out):
//
//   - each node owns a shard of the arena pool, capped at that node's CPU
//     count, whose arenas' mappings are bound to the node
//     (heap.NewSubOnNode) — homeArena routes a thread to its own node's
//     shard, so a refill never carves remote memory while local exists;
//   - each node owns a depot: flushes donate to the flusher's node, misses
//     pull from it, so a magazine miss never pulls a remote span while
//     local ones exist;
//   - a free of a chunk owned by another node's arena — the cross-node
//     traffic benchmark 2's producer/consumer chains generate — is not
//     parked in the local magazine (it would be handed back out to a local
//     thread, pinning remote memory into the hot path). It is buffered per
//     class and routed back to the owning node's depot in whole spans,
//     Hoard-style, counted in Stats.RemoteFrees/RemoteBytes; the owning
//     node's threads reuse it locally.
//
// Cached chunks — magazine or depot — look allocated from the arena's point
// of view, so every structural invariant Check() enforces keeps holding; the
// price is that parked chunks cannot coalesce until they are flushed.
//
// One machine serves the four magazine kinds, and the Kind alone picks its
// parts (newThreadCache):
//
//	kind             depot classes  page backend  re-homing  service
//	threadcache      mutex          arenas        no         no
//	lockfree         CAS stack      buddy         yes        no
//	threadcache-svc  mutex          arenas        no         yes
//	lockfree-svc     CAS stack      buddy         yes        yes
//
// The CAS parts are the depot's Treiber stacks (depot.go) and a per-node
// non-blocking buddy that cacheable refills carve spans from (lfbackend.go).
// Magazines re-home with them, since without arena ownership nothing else
// would repatriate a migrated thread's remote chunks. The service threads
// live in service.go.
//
// The machine runs the op frame on base (malloc.go) like every design: it
// replaces the arena path with its tier walk (allocate, deallocate), adds
// its tiers to the cascade and the stats, and checks them.
type ThreadCache struct {
	base
	caches denseTable[*tcache] // keyed by sim thread ID

	// depots are the tier-2 transfer caches, one per node shard (a single
	// entry on flat or node-blind machines); nil when disabled
	// (DepotCapBytes < 0).
	depots []*depot

	// shards is the node-sharded arena pool; a single shard with node -1
	// covers the whole machine when flat or node-blind.
	shards []*poolShard

	// lf is the buddy page backend of the lock-free kinds: cacheable refills
	// carve spans from it instead of locking arenas. nil for the mutex kinds.
	lf *lfBackend
	// rehome re-homes a migrated thread's magazine on the first operation
	// that observes its node changed (the lock-free kinds).
	rehome bool

	// The magazine geometry, cacheBatch and cacheHigh unless a test
	// narrows them before the first operation.
	batch     int
	highWater int

	// Adaptive magazine sizing (tcmalloc slow start).
	adaptive   bool
	growStreak int

	// The reclamation tuning of the scavenger's sources (scavenge.go):
	// trimPad is the resident pad the trim source keeps at every arena top,
	// minBinBytes the binned-release floor and binPad its resident pad.
	trimPad     uint32
	minBinBytes uint64
	binPad      uint64

	// svc is the per-node service-thread offload engine (service.go) of the
	// -svc kinds, nil otherwise. Its mailbox fast paths are inert until the
	// harness calls Service().Start.
	svc *Service
}

// The magazine machine's fixed tuning. Work constants are cycles: a
// lock-free magazine pop or push, the fixed overhead of a batch refill and
// of a batch flush (on top of WorkMalloc and WorkFree), and of a depot span
// exchange (on top of the class's lock or CAS). A refill pulls cacheBatch
// chunks; an adaptive mark grows by a batch after cacheGrowStreak
// consecutive hits, up to cacheHigh; chunks above cacheMax bytes are never
// cached.
const (
	cacheHitWork    = 15
	cacheRefillWork = 60
	cacheFlushWork  = 60
	depotXferWork   = 45
	cacheBatch      = 16
	cacheHigh       = 64
	cacheGrowStreak = 64
	cacheMax        = 32 * 1024
)

// tcEntry is one cached chunk: the user pointer plus the arena that owns it,
// recorded at push time so flushes need no routing scan.
type tcEntry struct {
	mem   uint64
	arena *heap.Arena
}

// poolShard is one NUMA node's slice of the arena pool: its arenas (created
// lazily, mapped on the shard's node), the round-robin index next handing
// out home arenas, and the per-shard cap (the node's CPU count). A flat or
// node-blind machine has exactly one shard with node -1, which reduces to
// the original CPU-capped pool.
type poolShard struct {
	node   int
	arenas []*heap.Arena
	next   int
	cap    int
}

// tcClass is one exact-chunk-size free list in a thread's cache (LIFO),
// plus its adaptive high-water state.
type tcClass struct {
	csz     uint32
	entries []tcEntry
	// remote buffers frees of chunks owned by another node's arenas; they
	// are never handed back out of this magazine, only routed home to the
	// owning node's depot (or arenas) in whole spans once a batch gathers.
	// Always empty on flat or node-blind machines.
	remote []tcEntry
	// mark is the class's current high-water mark; fixed at cacheHigh when
	// adaptive sizing is off, otherwise slow-started at one batch.
	mark int
	// streak counts consecutive lock-free hits since the last miss or flush.
	streak int
	// decayRem carries the scavenger's fractional decay share in hundredths
	// of a chunk, so small classes decay at the configured rate across
	// epochs instead of rounding to all-or-nothing each pass.
	decayRem int
}

// tcache is one thread's private front cache.
type tcache struct {
	home    *heap.Arena
	classes denseTable[*tcClass] // keyed by classSlot(csz)
	// lastOp is the virtual time of the owner's most recent malloc/free;
	// the scavenger's magazine source treats caches idle since before its
	// cutoff as reclaimable.
	lastOp sim.Time
	// node is the NUMA node the owner was last seen on (-1 until rehoming
	// observes one); only maintained when re-homing is on.
	node int
}

// classOf returns (creating if needed) the cache's class for chunk size csz,
// initialising its high-water mark per the sizing policy.
func (tc *ThreadCache) classOf(c *tcache, csz uint32) *tcClass {
	cl := c.classes.get(classSlot(csz))
	if cl == nil {
		mark := tc.highWater
		if tc.adaptive {
			mark = tc.batch
		}
		cl = &tcClass{csz: csz, mark: mark}
		c.classes.set(classSlot(csz), cl)
	}
	return cl
}

// NewThreadCache creates the thread-cache allocator on as. Zero-valued
// DepotCapBytes, MmapReuseCap and ScavengeDecay take their defaults.
func NewThreadCache(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*ThreadCache, error) {
	return newThreadCache(t, KindThreadCache, as, params, costs)
}

// newThreadCache builds the magazine machine for one of the four magazine
// kinds, which alone picks the parts (see ThreadCache).
func newThreadCache(t *sim.Thread, kind Kind, as *vm.AddressSpace, params heap.Params, costs CostParams) (*ThreadCache, error) {
	lockFree := kind == KindLockFree || kind == KindLockFreeSvc
	if costs.DepotCapBytes == 0 {
		costs.DepotCapBytes = DefaultDepotCapBytes
	}
	if costs.MmapReuseCap == 0 {
		// The modern design defaults the vm reuse tier on; the paper's
		// allocators leave it off unless a profile opts in.
		costs.MmapReuseCap = DefaultMmapReuseCap
	}
	if costs.ScavengeDecay <= 0 {
		costs.ScavengeDecay = DefaultCostParams().ScavengeDecay
	}
	tc := &ThreadCache{
		batch:      cacheBatch,
		highWater:  cacheHigh,
		adaptive:   costs.CacheAdaptive >= 0,
		growStreak: cacheGrowStreak,
		rehome:     lockFree,
	}
	if err := tc.init(t, tc, string(kind), as, params, costs); err != nil {
		return nil, err
	}
	tc.own = &tc.lastArena
	cpus := max(as.Machine().Config().CPUs, 1)
	// Shard the pool by node unless the machine is flat or the profile asked
	// for the node-blind baseline. The single-shard case is the original
	// CPU-capped pool: one shard, node -1 (first-touch mappings), the main
	// arena as slot 0.
	nodes := as.Machine().Nodes()
	if costs.NUMANodeBlind || nodes <= 1 {
		tc.shards = []*poolShard{{node: -1, arenas: []*heap.Arena{tc.arenas[0]}, cap: cpus}}
	} else {
		per := (cpus + nodes - 1) / nodes
		for n := 0; n < nodes; n++ {
			sh := &poolShard{node: n, cap: per}
			if n == 0 {
				// The main arena (brk segment, first-touch) serves as node
				// 0's first slot, as it did for the flat pool.
				sh.arenas = []*heap.Arena{tc.arenas[0]}
			}
			tc.shards = append(tc.shards, sh)
		}
		as.SetReuseNodeAffinity(true)
	}
	if lockFree {
		tc.lf = newLFBackend(tc.name, as, tc.shards, tc.lineAware, &tc.stats)
	}
	if costs.DepotCapBytes > 0 {
		for range tc.shards {
			dname := tc.name
			if len(tc.shards) > 1 {
				dname = fmt.Sprintf("%s.n%d", tc.name, len(tc.depots))
			}
			tc.depots = append(tc.depots, newDepot(as.Machine(), dname, lockFree, costs.DepotCapBytes, &tc.stats))
		}
	}
	if costs.ScavengeInterval > 0 {
		tc.newScavenger(costs)
	}
	if kind == KindThreadCacheSvc || kind == KindLockFreeSvc {
		tc.svc = newService(tc)
	}
	return tc, nil
}

// sharded reports whether placement is node-aware (more than one shard).
func (tc *ThreadCache) sharded() bool { return len(tc.shards) > 1 }

// shardOf returns the shard serving the calling thread: its node's on a
// sharded pool, the single flat shard otherwise.
func (tc *ThreadCache) shardOf(t *sim.Thread) *poolShard {
	if !tc.sharded() {
		return tc.shards[0]
	}
	return tc.shards[t.Node()]
}

// depotFor returns the depot of the given node (the single depot when the
// pool is flat or node-blind), nil when the depot tier is disabled.
func (tc *ThreadCache) depotFor(node int) *depot {
	if len(tc.depots) == 0 {
		return nil
	}
	if node < 0 || node >= len(tc.depots) {
		node = 0
	}
	return tc.depots[node]
}

// cacheOf returns (creating if needed) the calling thread's cache. Creation
// is a table slot, not an arena: threads that only mmap never pay for one.
func (tc *ThreadCache) cacheOf(t *sim.Thread) *tcache {
	t.Charge(sim.Time(tc.costs.TSDRead))
	c := tc.caches.get(t.ID())
	if c == nil {
		c = &tcache{node: -1}
		tc.caches.set(t.ID(), c)
	}
	if tc.rehome && tc.sharded() {
		if n := t.Node(); c.node != n {
			if c.node >= 0 {
				tc.rehomeCache(t, c, n)
			}
			c.node = n
		}
	}
	c.lastOp = t.Now()
	return c
}

// rehomeCache reacts to the scheduler migrating the cache's owner to another
// node: chunks whose memory lives on other nodes are released home (depot
// spans or arena frees, via the ordinary release routing), pending remote
// buffers go with them, and the home arena is dropped so the next refill
// re-picks one on the new node's shard. Chunks already local to the new node
// stay parked — the magazine keeps its warm, correctly-placed subset.
func (tc *ThreadCache) rehomeCache(t *sim.Thread, c *tcache, node int) {
	tc.stats.CacheRehomes++
	if tc.tel != nil {
		tc.tel.Instant(t, "magazine rehome", "numa")
	}
	for _, k := range c.classes.keys() {
		cl := c.classes.get(k)
		csz := cl.csz
		keep := cl.entries[:0]
		var evict []tcEntry
		for _, e := range cl.entries {
			if tc.nodeOfEntry(e) == node {
				keep = append(keep, e)
			} else {
				evict = append(evict, e)
			}
		}
		cl.entries = keep
		if len(cl.remote) > 0 {
			evict = append(evict, cl.remote...)
			cl.remote = nil
		}
		if len(evict) == 0 {
			continue
		}
		tc.stats.RehomedChunks += uint64(len(evict))
		if err := tc.release(t, csz, evict); err != nil {
			tc.recordErr(fmt.Errorf("malloc: re-homing magazine: %w", err))
		}
	}
	c.home = nil
}

// homeArena returns (assigning if needed) the thread's home arena. Threads
// map round-robin onto their node's shard of the pool; shard slots are
// created lazily under the list lock, with their mappings bound to the
// shard's node.
func (tc *ThreadCache) homeArena(t *sim.Thread, c *tcache) (*heap.Arena, error) {
	if c.home != nil {
		return c.home, nil
	}
	sh := tc.shardOf(t)
	idx := sh.next % sh.cap
	sh.next++
	if idx < len(sh.arenas) {
		c.home = sh.arenas[idx]
		return c.home, nil
	}
	a, err := tc.growPool(t, sh)
	if err != nil {
		return nil, err
	}
	c.home = a
	return a, nil
}

// growPool appends a fresh sub-arena to the shard under the list lock. The
// arena joins both the shard (for placement) and the flat arena list (the
// routing and stats registry).
func (tc *ThreadCache) growPool(t *sim.Thread, sh *poolShard) (*heap.Arena, error) {
	t.Lock(tc.listLock)
	a, err := tc.grow(t, sh.node)
	if err == nil {
		sh.arenas = append(sh.arenas, a)
	}
	t.Unlock(tc.listLock)
	return a, err
}

// allocate is the tier walk of a below-threshold malloc (sz is its chunk
// size): the caller's magazine, then the service shelf, the depot and the
// page backend; it reports the tier that served the chunk.
func (tc *ThreadCache) allocate(t *sim.Thread, size, sz uint32) (uint64, telemetry.Tier, error) {
	c := tc.cacheOf(t)
	if sz > cacheMax {
		// Too large to cache: straight to the home arena under its lock.
		mem, err := tc.arenaBatch(t, c, size, 0, tc.costs.WorkMalloc)
		return mem, telemetry.TierArena, err
	}
	if cl := c.classes.get(classSlot(sz)); cl != nil && len(cl.entries) > 0 {
		e := cl.entries[len(cl.entries)-1]
		cl.entries = cl.entries[:len(cl.entries)-1]
		t.Charge(cacheHitWork)
		tc.stats.CacheHits++
		tc.growOnStreak(cl)
		tc.lastArena.set(t.ID(), e.arena)
		return e.mem, telemetry.TierMagazine, nil
	}
	tc.stats.CacheMisses++
	// Offload fast path: a span the service thread prefetched for this
	// class costs one mailbox claim plus the descriptor's line transfers —
	// no lock of any kind. Hit or miss, the claim records demand so the next
	// epoch prefetches ahead of us.
	if tc.svc != nil {
		if span, ok := tc.svc.takeFull(t, sz, size); ok {
			return tc.install(t, c, sz, span), telemetry.TierService, nil
		}
	}
	// Tier 2: one span from the caller's node's depot costs depotXferWork
	// cycles plus the class's lock or CAS — no arena lock, no per-chunk
	// malloc work, and never a remote span while local ones exist.
	if depot := tc.depotFor(t.Node()); depot != nil {
		if span, ok := depot.get(t, sz); ok {
			return tc.install(t, c, sz, span), telemetry.TierDepot, nil
		}
	}
	if tc.lf != nil {
		// Tier 3, lock-free kinds: carve a batch from the buddy backend — no
		// arena, no lock; the contention is the buddy's bitmap CAS.
		mem, err := tc.buddyBatch(t, c, sz)
		return mem, telemetry.TierArena, err
	}
	mem, err := tc.arenaBatch(t, c, size, tc.batch-1, cacheRefillWork+tc.costs.WorkMalloc)
	return mem, telemetry.TierArena, err
}

// install parks a span fetched for a magazine miss in the caller's class and
// hands its top chunk to the caller.
func (tc *ThreadCache) install(t *sim.Thread, c *tcache, sz uint32, span []tcEntry) uint64 {
	cl := tc.classOf(c, sz)
	cl.streak = 0
	e := span[len(span)-1]
	cl.entries = append(cl.entries, span[:len(span)-1]...)
	tc.lastArena.set(t.ID(), e.arena)
	return e.mem
}

// arenaBatch allocates one chunk for the caller from the thread's home arena
// plus extra chunks parked in the cache, all under one lock acquisition.
// When the home arena hits its size cap the thread migrates to a fresh one.
func (tc *ThreadCache) arenaBatch(t *sim.Thread, c *tcache, req uint32, extra int, work int64) (uint64, error) {
	a, err := tc.homeArena(t, c)
	if err != nil {
		return 0, err
	}
	for try := 0; ; try++ {
		t.Lock(a.Lock)
		t.Charge(sim.Time(work))
		mem, merr := a.Malloc(t, req)
		if merr == nil {
			if extra > 0 {
				tc.stats.CacheRefills++
				for i := 0; i < extra; i++ {
					p, perr := a.Malloc(t, req)
					if perr != nil {
						break // partial refill: the user chunk is in hand
					}
					cl := tc.classOf(c, a.ChunkSizeOf(t, p))
					cl.entries = append(cl.entries, tcEntry{p, a})
					cl.streak = 0
				}
			}
			t.Unlock(a.Lock)
			tc.lastArena.set(t.ID(), a)
			return mem, nil
		}
		t.Unlock(a.Lock)
		if !errors.Is(merr, heap.ErrArenaFull) || try >= 1 {
			return 0, merr
		}
		// Home arena at its size cap: migrate to another arena of the same
		// shard with room before growing the shard (single chunk, no batch —
		// the next miss refills from the new home).
		sh := tc.shardOf(t)
		for _, b := range sh.arenas {
			if b == a {
				continue
			}
			if mem, err := tc.mallocOn(t, b, req); err == nil {
				c.home = b
				return mem, nil
			}
		}
		a, err = tc.growPool(t, sh)
		if err == nil {
			c.home = a
			continue
		}
		// The shard cannot grow (address space exhausted): fall back to any
		// arena on the machine — remote memory beats failure. Only reachable
		// on a sharded pool; the flat shard already swept everything.
		for _, b := range tc.arenas {
			if b == a || slices.Contains(sh.arenas, b) {
				continue
			}
			if mem, err := tc.mallocOn(t, b, req); err == nil {
				return mem, nil
			}
		}
		return 0, fmt.Errorf("malloc: no arena can satisfy %d bytes: %w", req, err)
	}
}

// buddyBatch refills one class from the buddy backend: one user chunk plus
// batch-1 parked, charged like an arena batch refill but with no lock — the
// only shared state touched is the buddy's bitmap, priced by CAS.
func (tc *ThreadCache) buddyBatch(t *sim.Thread, c *tcache, sz uint32) (uint64, error) {
	t.Charge(sim.Time(cacheRefillWork + tc.costs.WorkMalloc))
	entries, err := tc.lf.refill(t, t.Node(), sz, tc.batch, tc.batch)
	if err != nil {
		return 0, err
	}
	tc.stats.CacheRefills++
	e := entries[len(entries)-1]
	if len(entries) > 1 {
		cl := tc.classOf(c, sz)
		cl.entries = append(cl.entries, entries[:len(entries)-1]...)
		cl.streak = 0
	}
	tc.lastArena.set(t.ID(), nil)
	return e.mem, nil
}

// deallocate parks cacheable chunks on the local cache without locking; a
// class crossing its high-water mark is flushed back in whole spans. It
// reports the chunk's size class and the tier the free reached. Buddy-backed
// chunks (the lock-free kinds) park exactly like arena-owned ones, except
// that the owning node comes from the span and the eventual flush returns
// the chunk to its span instead of an arena.
func (tc *ThreadCache) deallocate(t *sim.Thread, mem uint64) (uint32, telemetry.Tier, error) {
	// Owner lookup: buddy span, then the mmapped check, then the arena.
	// Buddy chunks carry no chunk header, so they are routed before any
	// header sniffing: the mmapped probe reads the size word below mem,
	// which for a buddy chunk is a neighbour's user bytes — data that can
	// fake the IsMmapped flag and send the chunk to a bogus munmap.
	var sp *lfSpan
	if tc.lf != nil {
		t.Charge(sim.Time(tc.costs.TSDRead))
		sp = tc.lf.spanAt(mem)
	}
	var a *heap.Arena
	if sp == nil {
		if tc.arenas[0].IsMmappedMem(t, mem) {
			return 0, telemetry.TierVM, tc.arenas[0].FreeMmapChunk(t, mem)
		}
		var err error
		if a, err = tc.routeFree(t, mem); err != nil {
			return 0, 0, err
		}
	}
	c := tc.cacheOf(t)
	var csz uint32
	var node int
	if sp != nil {
		csz, node = sp.csz, sp.node
	} else {
		csz, node = a.ChunkSizeOf(t, mem), a.Node
	}
	// Implausible sizes (wild or corrupt pointers) take the locked arena
	// path, which validates and reports ErrBadFree. Buddy spans carve only
	// cacheable classes, so their chunks never land here.
	if csz < heap.MinChunk || csz > cacheMax {
		t.Lock(a.Lock)
		t.Charge(sim.Time(tc.costs.WorkFree))
		err := a.Free(t, mem)
		t.Unlock(a.Lock)
		return csz, telemetry.TierArena, err
	}
	t.Charge(cacheHitWork)
	if a != nil && c.home != nil && c.home != a {
		tc.stats.CrossArenaFrees++
	}
	cl := tc.classOf(c, csz)
	// A chunk owned by another node must not re-enter the local hot path:
	// buffer it and route it back to the owning node's depot in whole spans
	// (Hoard's remote free), where that node's threads reuse it as local
	// memory.
	if tc.sharded() && node >= 0 && node != t.Node() {
		tc.stats.RemoteFrees++
		tc.stats.RemoteBytes += uint64(csz)
		cl.remote = append(cl.remote, tcEntry{mem, a})
		if len(cl.remote) < tc.batch {
			return csz, telemetry.TierMagazine, nil
		}
		victims := cl.remote
		cl.remote = nil
		posted, err := tc.releaseOrPost(t, csz, victims, true)
		return csz, freeTier(posted), err
	}
	cl.entries = append(cl.entries, tcEntry{mem, a})
	if len(cl.entries) <= cl.mark {
		return csz, telemetry.TierMagazine, nil
	}
	posted, err := tc.flushClass(t, cl)
	return csz, freeTier(posted), err
}

// growOnStreak advances a class's hit streak and grows its adaptive mark by
// one batch after growStreak consecutive lock-free hits, up to highWater.
// Under memory pressure (pressure.go) marks stay clamped at one batch: a fat
// magazine is exactly the parked memory an emergency pass just reclaimed.
func (tc *ThreadCache) growOnStreak(cl *tcClass) {
	if !tc.adaptive || tc.level > 0 {
		return
	}
	cl.streak++
	if cl.streak < tc.growStreak {
		return
	}
	cl.streak = 0
	if cl.mark < tc.highWater {
		cl.mark += tc.batch
		if cl.mark > tc.highWater {
			cl.mark = tc.highWater
		}
		tc.stats.CacheMarkGrows++
	}
}

// freeTier maps a flush's disposition to its telemetry tier: a batch posted
// to the service mailbox is TierService, the synchronous path TierDepot.
func freeTier(posted bool) telemetry.Tier {
	if posted {
		return telemetry.TierService
	}
	return telemetry.TierDepot
}

// flushClass releases the oldest portion of an over-full class — to the
// depot in whole spans, to the arenas on depot overflow — keeping the hot
// top of the stack local. The kept suffix is retained in place (copy-down)
// instead of reallocated, and flush pressure shrinks the adaptive mark.
// Reports whether the batch went out as a service-mailbox post.
func (tc *ThreadCache) flushClass(t *sim.Thread, cl *tcClass) (bool, error) {
	keep := cl.mark / 2
	n := len(cl.entries) - keep
	// Release whole spans where possible: a sub-batch remainder stays
	// parked instead of wasting a depot slot (and a later full exchange) on
	// a tiny span. Releases no larger than one batch go out as-is, so a
	// flush always relieves pressure.
	if len(tc.depots) > 0 && n > tc.batch {
		n -= n % tc.batch
	}
	posted, err := tc.releaseOrPost(t, cl.csz, cl.entries[:n], false)
	copy(cl.entries, cl.entries[n:])
	cl.entries = cl.entries[:len(cl.entries)-n]
	if tc.adaptive {
		cl.streak = 0
		if cl.mark > tc.batch {
			cl.mark -= tc.batch
			if cl.mark < tc.batch {
				cl.mark = tc.batch
			}
			tc.stats.CacheMarkShrinks++
		}
	}
	return posted, err
}

// releaseOrPost hands victims to the service mailbox when offload is
// running (remote marks batches of other nodes' memory, which the service
// routes home instead of recycling), falling back to the synchronous
// release when the mailbox refuses. Reports whether the post was accepted.
func (tc *ThreadCache) releaseOrPost(t *sim.Thread, csz uint32, victims []tcEntry, remote bool) (bool, error) {
	if tc.svc != nil && tc.svc.postEmpty(t, csz, victims, remote) {
		return true, nil
	}
	return false, tc.release(t, csz, victims)
}

// release returns victims (all of class csz) to the system: spans of up to
// one batch of chunks are donated to the depot (a trailing partial span
// included — detach must empty the magazine), and whatever the depot
// refuses — or everything, when it is disabled — is freed into the owning
// arenas. On a sharded pool each span is donated to the depot of the node
// owning its chunks, so remote frees land where their memory lives and a
// full depot on one node never blocks donations to another; a flat pool is
// the one-node case of the same loop. Donated spans are copies, but the
// node grouping and the arena fallback reorder victims in place; the slice
// holds nothing of value once release returns, and the caller may reuse its
// backing storage.
func (tc *ThreadCache) release(t *sim.Thread, csz uint32, victims []tcEntry) error {
	if len(tc.depots) == 0 {
		return tc.flush(t, victims)
	}
	if tc.sharded() {
		// Group victims by owning node (stable, so LIFO order survives
		// within a node). Unbound arenas (the main arena) count as node 0.
		sort.SliceStable(victims, func(i, j int) bool {
			return tc.nodeOfEntry(victims[i]) < tc.nodeOfEntry(victims[j])
		})
	}
	// Donate each node's run as spans to that node's depot; refusals are
	// compacted into victims[:n] for one combined arena flush.
	n := 0
	for i := 0; i < len(victims); {
		node := tc.nodeOfEntry(victims[i])
		j := i
		for j < len(victims) && tc.nodeOfEntry(victims[j]) == node {
			j++
		}
		run := victims[i:j]
		depot := tc.depotFor(node)
		for len(run) > 0 {
			sn := tc.batch
			if sn > len(run) {
				sn = len(run)
			}
			span := make([]tcEntry, sn)
			copy(span, run[:sn])
			if !depot.put(t, csz, span) {
				n += copy(victims[n:], run)
				break
			}
			run = run[sn:]
		}
		i = j
	}
	return tc.flush(t, victims[:n])
}

// nodeOfArena maps an arena to the shard node its chunks live on (unbound
// arenas — the main arena — count as node 0).
func (tc *ThreadCache) nodeOfArena(a *heap.Arena) int {
	if a.Node < 0 {
		return 0
	}
	return a.Node
}

// nodeOfEntry maps a cached chunk to its owning node: the arena's node for
// arena chunks, the span's for buddy-backed ones (unbound either way counts
// as node 0). A flat pool is all node 0.
func (tc *ThreadCache) nodeOfEntry(e tcEntry) int {
	if !tc.sharded() {
		return 0
	}
	if e.arena != nil {
		return tc.nodeOfArena(e.arena)
	}
	if tc.lf != nil {
		if sp := tc.lf.spanAt(e.mem); sp != nil && sp.node >= 0 {
			return sp.node
		}
	}
	return 0
}

// flush frees victims into their owning arenas. Victims are pre-sorted by
// arena index so interleaved cross-arena batches still take each arena's
// lock exactly once; the sort is stable, preserving LIFO order within an
// arena. Every victim is freed even when an earlier one errors; the first
// error is reported after the batch completes.
func (tc *ThreadCache) flush(t *sim.Thread, victims []tcEntry) error {
	if len(victims) == 0 {
		return nil
	}
	tc.stats.CacheFlushes++
	t.Charge(cacheFlushWork)
	if tc.lf != nil {
		// Buddy-backed victims return to their spans lock-free; only the
		// arena-owned remainder (if any) takes locks below.
		rest, err := tc.lf.takeReturns(t, victims)
		if err != nil {
			return err
		}
		if len(rest) == 0 {
			return nil
		}
		victims = rest
	}
	sort.SliceStable(victims, func(i, j int) bool {
		return victims[i].arena.Index < victims[j].arena.Index
	})
	var firstErr error
	i := 0
	for i < len(victims) {
		a := victims[i].arena
		t.Lock(a.Lock)
		t.Charge(sim.Time(tc.costs.WorkFree))
		for i < len(victims) && victims[i].arena == a {
			if ferr := a.Free(t, victims[i].mem); ferr != nil && firstErr == nil {
				firstErr = ferr
			}
			i++
		}
		t.Unlock(a.Lock)
	}
	return firstErr
}

// DetachThread returns the dying thread's magazines — whole spans to the
// depot, overflow to the arenas — and discards its cache, the way a pthread
// destructor returns a magazine. Surviving threads then refill from the
// depot instead of the arena locks (benchmark 2's round handoff).
func (tc *ThreadCache) DetachThread(t *sim.Thread) {
	if c := tc.caches.get(t.ID()); c != nil {
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			// Pending remote frees go home with the magazine: release
			// routes them to their owning nodes' depots.
			for _, victims := range [][]tcEntry{cl.entries, cl.remote} {
				if err := tc.release(t, cl.csz, victims); err != nil {
					tc.recordErr(fmt.Errorf("malloc: thread-cache release on detach: %w", err))
				}
			}
			cl.entries, cl.remote = nil, nil
		}
		tc.caches.set(t.ID(), nil)
	}
	tc.base.DetachThread(t)
}

// addStats adds the caching tiers: chunks and bytes parked in magazines,
// depots and mailboxes, and the buddy backend's contention counters.
func (tc *ThreadCache) addStats(s *Stats) {
	for _, tid := range tc.caches.keys() {
		c := tc.caches.get(tid)
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			s.CachedChunks += len(cl.entries) + len(cl.remote)
			s.CachedBytes += uint64(len(cl.entries)+len(cl.remote)) * uint64(cl.csz)
		}
	}
	for _, depot := range tc.depots {
		s.DepotChunks += depot.chunkCount()
		s.DepotBytes += depot.byteCount()
		depot.addPointStats(s)
	}
	if tc.lf != nil {
		bs := tc.lf.bStats()
		s.CASAttempts += bs.CASAttempts
		s.CASFails += bs.CASFails
		s.CASRetryCycles += uint64(bs.RetryCycles)
	}
	if tc.svc != nil {
		s.SvcParkedChunks, s.SvcParkedBytes = tc.svc.parked()
	}
}

// ParkedBytes sums the memory parked in every caching tier right now —
// magazines, depot, service mailboxes and the vm reuse cache. Together with
// the address space's ResidentBytes it is the footprint metric experiment D3
// plots.
func (tc *ThreadCache) ParkedBytes() uint64 {
	s := tc.Stats()
	return s.CachedBytes + s.DepotBytes + s.SvcParkedBytes + tc.as.Stats().MmapReuseParked
}

// check verifies the cache invariants: every parked chunk — magazine, depot
// or mailbox — must lie inside the arena recorded for it and appear in at
// most one cache slot across all tiers.
func (tc *ThreadCache) check() error {
	seen := make(map[uint64]bool)
	// owns validates one cached chunk's provenance: inside its recorded arena,
	// or — for the nil-arena entries of the lock-free design — a carved chunk
	// of a live buddy span.
	owns := func(e tcEntry) error {
		if e.arena == nil {
			if tc.lf == nil {
				return fmt.Errorf("cached 0x%x has no arena and no buddy backend", e.mem)
			}
			return tc.lf.ownsChunk(e.mem)
		}
		if !e.arena.Contains(e.mem - heap.HeaderSz) {
			return fmt.Errorf("cached 0x%x outside arena %d", e.mem, e.arena.Index)
		}
		return nil
	}
	for _, tid := range tc.caches.keys() {
		c := tc.caches.get(tid)
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			for _, list := range [][]tcEntry{cl.entries, cl.remote} {
				for _, e := range list {
					if seen[e.mem] {
						return fmt.Errorf("malloc: chunk 0x%x cached twice", e.mem)
					}
					seen[e.mem] = true
					if err := owns(e); err != nil {
						return fmt.Errorf("malloc: thread %d: %w", tid, err)
					}
				}
			}
			// A remote buffer must only ever hold chunks owned away from the
			// pool shards' local arenas; on a sharded pool every buffered
			// arena-owned entry's arena is node-bound by construction (buddy
			// chunks carry their node on the span instead).
			if tc.sharded() {
				for _, e := range cl.remote {
					if e.arena != nil && e.arena.Node < 0 {
						return fmt.Errorf("malloc: remote buffer holds 0x%x from unbound arena %d", e.mem, e.arena.Index)
					}
				}
			}
		}
	}
	for _, depot := range tc.depots {
		if err := depot.check(seen, owns); err != nil {
			return err
		}
	}
	if tc.svc != nil {
		if err := tc.svc.check(seen, owns); err != nil {
			return err
		}
	}
	if tc.lf != nil {
		if err := tc.lf.check(); err != nil {
			return err
		}
	}
	if tc.lineAware {
		if n := tc.SharedMagazineLines(); n > 0 {
			return fmt.Errorf("malloc: line-aware invariant broken: %d cache lines split across magazines", n)
		}
	}
	return nil
}

// SharedMagazineLines counts cache lines currently split between two or more
// live magazines: lines some part of which is parked in one thread's magazine
// while another part is parked in a different thread's. Each such line is a
// standing false-sharing hazard — both threads will eventually hand their
// halves to their own callers, and writes then ping-pong the line. Under
// line-aware placement (heap.Params.Align at least a cache line) the count
// is zero by construction (Check enforces it); blind it measures how badly
// sub-line carving interleaved the magazines.
func (tc *ThreadCache) SharedMagazineLines() int {
	const line = cache.LineSize
	owner := make(map[uint64]int)
	shared := make(map[uint64]bool)
	for _, tid := range tc.caches.keys() {
		c := tc.caches.get(tid)
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			for _, e := range cl.entries {
				for l := e.mem / line; l <= (e.mem+uint64(cl.csz)-1)/line; l++ {
					if o, ok := owner[l]; ok {
						if o != tid {
							shared[l] = true
						}
					} else {
						owner[l] = tid
					}
				}
			}
		}
	}
	return len(shared)
}
