package malloc

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// ThreadCache is the magazine-style design later allocators (Hoard,
// tcmalloc, SpeedMalloc) converged on: every thread owns a size-classed
// free-list cache sitting in front of a small shared arena pool.
//
//   - malloc pops from the caller's local cache with zero locking; a miss
//     first tries the central transfer cache (one span under one class
//     lock), and only a depot miss refills a batch of CacheBatch chunks
//     from the thread's home arena under its lock;
//   - free pushes onto the local cache without touching any lock, wherever
//     the chunk's owning arena is — the cross-thread frees that make
//     benchmark 2 hammer foreign arena locks in ptmalloc are simply parked
//     locally, and donated to the depot in whole spans only when a class
//     crosses its high-water mark (arena-grouped frees remain the fallback
//     when the depot is full or disabled);
//   - per-class high-water marks are adaptive by default: they slow-start
//     at one batch, grow on consecutive-hit streaks and shrink on flush
//     pressure, bounded by CacheHigh;
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
type ThreadCache struct {
	*base
	caches denseTable[*tcache] // keyed by sim thread ID

	// depots are the central transfer caches, one per node shard (a single
	// entry on flat or node-blind machines); nil when disabled (DepotCap<0).
	// The implementation is pluggable (depot.go): per-class mutexes by
	// default, Treiber CAS stacks under DepotLockFree.
	depots []depot

	// shards is the node-sharded arena pool; a single shard with node -1
	// covers the whole machine when flat or node-blind.
	shards    []*poolShard
	nodeBlind bool

	// lf is the buddy page backend (BuddyBackend): cacheable refills carve
	// spans from it instead of locking arenas. nil for the mutex designs.
	lf *lfBackend
	// rehome re-homes a migrated thread's magazine on the first operation
	// that observes its node changed (CacheRehome).
	rehome bool

	batch     int
	highWater int
	maxBlock  uint32

	// Adaptive magazine sizing (tcmalloc slow start).
	adaptive   bool
	growStreak int

	// scav is the reclamation engine (internal/scavenge), nil unless
	// ScavengeInterval opted in. trimPad is the resident pad its trim source
	// keeps at every arena top and minBinBytes the binned-release floor; both
	// are set by newScavenger, the single owner of the reclamation tuning.
	scav        *scavenge.Scavenger
	trimPad     uint32
	minBinBytes uint64
	binPad      uint64

	// svc is the per-node service-thread offload engine (service.go), nil
	// unless CostParams.Offload opted in. Its mailbox fast paths are inert
	// until the harness calls Service().Start.
	svc *Service

	// User-level op counts: arena counters include batch refills and
	// deferred flushes, so Stats() reports these instead.
	userMallocs uint64
	userFrees   uint64

	// pressured clamps every magazine's high-water mark at one batch while
	// the pressure wrapper (pressure.go) reports sustained memory pressure.
	pressured bool
}

// tcEntry is one cached chunk: the user pointer plus the arena that owns it,
// recorded at push time so flushes need no routing scan.
type tcEntry struct {
	mem   uint64
	arena *heap.Arena
}

// poolShard is one NUMA node's slice of the arena pool: its arenas (created
// lazily, mapped on the shard's node), the round-robin cursor handing out
// home arenas, and the per-shard cap (the node's CPU count). A flat or
// node-blind machine has exactly one shard with node -1, which reduces to
// the original CPU-capped pool.
type poolShard struct {
	node   int
	arenas []*heap.Arena
	next   int
	cap    int
	// cursor prices the round-robin selection as an atomic fetch-add when the
	// pool is read-mostly (DepotLockFree): home-arena picks happen only on a
	// thread's first miss and after a migration, and never take the list lock
	// — that is reserved for growing the shard. nil (unpriced Go-side
	// bookkeeping, the historic behaviour) for the mutex designs.
	cursor *sim.CASPoint
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
	// mark is the class's current high-water mark; fixed at CacheHigh when
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
	// observes one); only maintained when CacheRehome is on.
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

// NewThreadCache creates the thread-cache allocator on as. Zero-valued cache
// knobs in costs take the DefaultCostParams values.
func NewThreadCache(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*ThreadCache, error) {
	return newThreadCacheNamed(t, "threadcache", as, params, costs)
}

// newThreadCacheNamed is the shared constructor behind NewThreadCache and
// NewLockFree: the two designs are one machine differing only in the costs
// flags that pick the depot implementation, the pool-cursor pricing, the
// page backend and the rehoming policy.
func newThreadCacheNamed(t *sim.Thread, name string, as *vm.AddressSpace, params heap.Params, costs CostParams) (*ThreadCache, error) {
	def := DefaultCostParams()
	if costs.CacheHit == 0 {
		costs.CacheHit = def.CacheHit
	}
	if costs.CacheRefill == 0 {
		costs.CacheRefill = def.CacheRefill
	}
	if costs.CacheFlush == 0 {
		costs.CacheFlush = def.CacheFlush
	}
	if costs.CacheBatch <= 0 {
		costs.CacheBatch = def.CacheBatch
	}
	if costs.CacheHigh <= 0 {
		costs.CacheHigh = def.CacheHigh
	}
	if costs.CacheMax == 0 {
		costs.CacheMax = def.CacheMax
	}
	if costs.DepotXfer == 0 {
		costs.DepotXfer = def.DepotXfer
	}
	if costs.DepotCap == 0 {
		costs.DepotCap = def.DepotCap
	}
	if costs.DepotCapBytes == 0 {
		costs.DepotCapBytes = def.DepotCapBytes
	}
	if costs.CacheGrowStreak <= 0 {
		costs.CacheGrowStreak = def.CacheGrowStreak
	}
	if costs.MmapReuseWork == 0 {
		costs.MmapReuseWork = def.MmapReuseWork
	}
	if costs.MmapReuseCap == 0 {
		// The modern design defaults the vm reuse tier on; the paper's
		// allocators leave it off unless a profile opts in.
		costs.MmapReuseCap = DefaultMmapReuseCap
	}
	if costs.ScavengeDecay <= 0 {
		costs.ScavengeDecay = def.ScavengeDecay
	}
	if costs.ScavengeTrimPad == 0 {
		costs.ScavengeTrimPad = def.ScavengeTrimPad
	}
	if costs.ScavengeWork == 0 {
		costs.ScavengeWork = def.ScavengeWork
	}
	if costs.BuddyCarveWork == 0 {
		costs.BuddyCarveWork = DefaultBuddyCarveWork
	}
	if costs.BuddyReturnWork == 0 {
		costs.BuddyReturnWork = DefaultBuddyReturnWork
	}
	b, err := newBase(t, name, as, params, costs)
	if err != nil {
		return nil, err
	}
	cpus := as.Machine().Config().CPUs
	if cpus < 1 {
		cpus = 1
	}
	tc := &ThreadCache{
		base:       b,
		batch:      costs.CacheBatch,
		highWater:  costs.CacheHigh,
		maxBlock:   costs.CacheMax,
		adaptive:   costs.CacheAdaptive >= 0,
		growStreak: costs.CacheGrowStreak,
		rehome:     costs.CacheRehome,
	}
	// Shard the pool by node unless the machine is flat or the profile asked
	// for the node-blind baseline. The single-shard case is the original
	// CPU-capped pool: one shard, node -1 (first-touch mappings), the main
	// arena as slot 0.
	nodes := as.Machine().Nodes()
	tc.nodeBlind = costs.NUMANodeBlind || nodes <= 1
	if tc.nodeBlind {
		tc.shards = []*poolShard{{node: -1, arenas: []*heap.Arena{b.arenas[0]}, cap: cpus}}
	} else {
		per := (cpus + nodes - 1) / nodes
		for n := 0; n < nodes; n++ {
			sh := &poolShard{node: n, cap: per}
			if n == 0 {
				// The main arena (brk segment, first-touch) serves as node
				// 0's first slot, as it did for the flat pool.
				sh.arenas = []*heap.Arena{b.arenas[0]}
			}
			tc.shards = append(tc.shards, sh)
		}
		as.SetReuseNodeAffinity(true)
	}
	if costs.DepotLockFree {
		// Read-mostly pool: the shards' round-robin cursors become priced
		// atomic fetch-adds (the list lock now guards growth only).
		for _, sh := range tc.shards {
			sh.cursor = as.Machine().NewCASPoint(fmt.Sprintf("%s.pool.n%d", b.name, sh.node))
		}
	}
	if costs.DepotCap > 0 {
		capBytes := costs.DepotCapBytes
		if capBytes < 0 {
			capBytes = 0 // legacy span-count cap
		}
		for range tc.shards {
			dname := b.name
			if len(tc.shards) > 1 {
				dname = fmt.Sprintf("%s.n%d", b.name, len(tc.depots))
			}
			if costs.DepotLockFree {
				tc.depots = append(tc.depots, newLFDepot(as.Machine(), dname, costs.DepotCap, capBytes, costs.DepotXfer, &b.stats))
			} else {
				tc.depots = append(tc.depots, newTransferCache(as.Machine(), dname, costs.DepotCap, capBytes, costs.DepotXfer, &b.stats))
			}
		}
	}
	if costs.BuddyBackend {
		tc.lf = newLFBackend(b.name, as, tc.shards, costs, &b.stats)
	}
	if costs.ScavengeInterval > 0 {
		tc.scav = tc.newScavenger(costs)
	}
	if costs.Offload {
		if costs.ServiceInterval <= 0 {
			costs.ServiceInterval = DefaultServiceInterval
		}
		if costs.ServiceMailboxCap <= 0 {
			costs.ServiceMailboxCap = DefaultServiceMailboxCap
		}
		if costs.ServiceWatermark <= 0 {
			costs.ServiceWatermark = DefaultServiceWatermark
		}
		tc.costs.ServiceInterval = costs.ServiceInterval
		tc.costs.ServiceMailboxCap = costs.ServiceMailboxCap
		tc.costs.ServiceWatermark = costs.ServiceWatermark
		tc.svc = newService(tc, costs)
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
func (tc *ThreadCache) depotFor(node int) depot {
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
	if sh.cursor != nil {
		// Read-mostly pool: the shared cursor bump is a priced fetch-add, not
		// a lock. It fires only on first assignment and after migrations.
		t.AtomicAdd(sh.cursor)
	}
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
	a, err := heap.NewSubOnNode(t, tc.as, &tc.params, len(tc.arenas), sh.node)
	if err != nil {
		t.Unlock(tc.listLock)
		return nil, fmt.Errorf("malloc: creating pool arena: %w", err)
	}
	tc.arenas = append(tc.arenas, a)
	sh.arenas = append(sh.arenas, a)
	tc.stats.ArenaCreations++
	t.Unlock(tc.listLock)
	return a, nil
}

// Malloc allocates size bytes, serving cacheable sizes from the local cache.
func (tc *ThreadCache) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	tc.opCharge(t, 0, tc.lastArena.get(t.ID()))
	tc.maybeScavenge(t)
	if mem, err, done := tc.mmapPath(t, size); done {
		if err == nil {
			tc.telOp(t, telemetry.OpMalloc, tc.params.Request2Size(size), telemetry.TierVM, start)
		}
		return mem, err
	}
	tc.noteQuant(size)
	c := tc.cacheOf(t)
	sz := tc.params.Request2Size(size)
	if sz <= tc.maxBlock {
		if cl := c.classes.get(classSlot(sz)); cl != nil && len(cl.entries) > 0 {
			e := cl.entries[len(cl.entries)-1]
			cl.entries = cl.entries[:len(cl.entries)-1]
			t.Charge(sim.Time(tc.costs.CacheHit))
			tc.stats.CacheHits++
			tc.growOnStreak(cl)
			tc.userMallocs++
			tc.lastArena.set(t.ID(), e.arena)
			tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierMagazine, start)
			return e.mem, nil
		}
		tc.stats.CacheMisses++
		// Offload fast path: a span the service thread prefetched for this
		// class costs one mailbox claim plus the descriptor's line
		// transfers — no lock of any kind. Hit or miss, the claim records
		// demand so the next epoch prefetches ahead of us.
		if tc.svc != nil {
			if span, ok := tc.svc.takeFull(t, sz, size); ok {
				cl := tc.classOf(c, sz)
				cl.streak = 0
				e := span[len(span)-1]
				cl.entries = append(cl.entries, span[:len(span)-1]...)
				tc.userMallocs++
				tc.lastArena.set(t.ID(), e.arena)
				tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierService, start)
				return e.mem, nil
			}
		}
		// Tier 2: one span from the caller's node's transfer cache costs a
		// class lock and DepotXfer cycles — no arena lock, no per-chunk
		// malloc work, and never a remote span while local ones exist.
		if depot := tc.depotFor(t.Node()); depot != nil {
			if span, ok := depot.get(t, sz); ok {
				cl := tc.classOf(c, sz)
				cl.streak = 0
				e := span[len(span)-1]
				cl.entries = append(cl.entries, span[:len(span)-1]...)
				tc.userMallocs++
				tc.lastArena.set(t.ID(), e.arena)
				tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierDepot, start)
				return e.mem, nil
			}
		}
		if tc.lf != nil {
			// Tier 3, lock-free design: carve a batch from the buddy backend
			// — no arena, no lock; the contention is the buddy's bitmap CAS.
			mem, err := tc.buddyBatch(t, c, sz)
			if err == nil {
				tc.userMallocs++
				tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierArena, start)
			}
			return mem, err
		}
		mem, err := tc.arenaBatch(t, c, size, tc.batch-1, tc.costs.CacheRefill+tc.costs.WorkMalloc)
		if err == nil {
			tc.userMallocs++
			tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierArena, start)
		}
		return mem, err
	}
	// Too large to cache: straight to the home arena under its lock.
	mem, err := tc.arenaBatch(t, c, size, 0, tc.costs.WorkMalloc)
	if err == nil {
		tc.userMallocs++
		tc.telOp(t, telemetry.OpMalloc, sz, telemetry.TierArena, start)
	}
	return mem, err
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
			t.Lock(b.Lock)
			mem, err2 := b.Malloc(t, req)
			t.Unlock(b.Lock)
			if err2 == nil {
				c.home = b
				tc.lastArena.set(t.ID(), b)
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
			t.Lock(b.Lock)
			mem, err2 := b.Malloc(t, req)
			t.Unlock(b.Lock)
			if err2 == nil {
				tc.lastArena.set(t.ID(), b)
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
	t.Charge(sim.Time(tc.costs.CacheRefill + tc.costs.WorkMalloc))
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

// Free parks cacheable chunks on the local cache without locking; a class
// crossing its high-water mark is flushed back in arena-grouped batches.
func (tc *ThreadCache) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	tc.opCharge(t, 0, tc.lastArena.get(t.ID()))
	tc.maybeScavenge(t)
	if tc.lf != nil {
		// Buddy-backed chunks never belong to an arena and carry no chunk
		// header: route them by span before any header sniffing. The
		// mmapped-chunk probe reads the size word below mem, which for a
		// buddy chunk is a neighbour's user bytes — data that can fake the
		// IsMmapped flag and send the chunk to a bogus munmap.
		if sp := tc.lf.spanOf(t, mem, tc.costs.TSDRead); sp != nil {
			return tc.freeBuddy(t, mem, sp, start)
		}
	}
	if done, err := tc.freeIfMmapped(t, mem); done {
		if err == nil {
			tc.telOp(t, telemetry.OpFree, 0, telemetry.TierVM, start)
		}
		return err
	}
	a, err := tc.routeFree(t, mem)
	if err != nil {
		return err
	}
	c := tc.cacheOf(t)
	csz := a.ChunkSizeOf(t, mem)
	// Implausible sizes (wild or corrupt pointers) take the locked arena
	// path, which validates and reports ErrBadFree.
	if csz >= heap.MinChunk && csz <= tc.maxBlock {
		t.Charge(sim.Time(tc.costs.CacheHit))
		tc.userFrees++
		if c.home != nil && c.home != a {
			tc.stats.CrossArenaFrees++
		}
		cl := tc.classOf(c, csz)
		// A chunk owned by another node's arena must not re-enter the local
		// hot path: buffer it and route it back to the owning node's depot
		// in whole spans (Hoard's remote free), where that node's threads
		// reuse it as local memory.
		if tc.sharded() && a.Node >= 0 && a.Node != t.Node() {
			tc.stats.RemoteFrees++
			tc.stats.RemoteBytes += uint64(csz)
			cl.remote = append(cl.remote, tcEntry{mem, a})
			if len(cl.remote) >= tc.batch {
				victims := cl.remote
				cl.remote = nil
				posted, err := tc.releaseOrPost(t, csz, victims, true)
				if err == nil {
					tc.telOp(t, telemetry.OpFree, csz, freeTier(posted), start)
				}
				return err
			}
			tc.telOp(t, telemetry.OpFree, csz, telemetry.TierMagazine, start)
			return nil
		}
		cl.entries = append(cl.entries, tcEntry{mem, a})
		if len(cl.entries) > cl.mark {
			posted, err := tc.flushClass(t, cl)
			if err == nil {
				tc.telOp(t, telemetry.OpFree, csz, freeTier(posted), start)
			}
			return err
		}
		tc.telOp(t, telemetry.OpFree, csz, telemetry.TierMagazine, start)
		return nil
	}
	t.Lock(a.Lock)
	t.Charge(sim.Time(tc.costs.WorkFree))
	ferr := a.Free(t, mem)
	t.Unlock(a.Lock)
	if ferr == nil {
		tc.userFrees++
		tc.telOp(t, telemetry.OpFree, csz, telemetry.TierArena, start)
	}
	return ferr
}

// freeBuddy parks a buddy-backed chunk exactly like an arena-owned one —
// local magazine, remote buffer for other nodes' memory — except that the
// owning node comes from the span and the eventual flush returns the chunk
// to its span instead of an arena lock.
func (tc *ThreadCache) freeBuddy(t *sim.Thread, mem uint64, sp *lfSpan, start sim.Time) error {
	c := tc.cacheOf(t)
	csz := sp.csz
	if csz >= heap.MinChunk && csz <= tc.maxBlock {
		t.Charge(sim.Time(tc.costs.CacheHit))
		tc.userFrees++
		cl := tc.classOf(c, csz)
		if tc.sharded() && sp.node >= 0 && sp.node != t.Node() {
			tc.stats.RemoteFrees++
			tc.stats.RemoteBytes += uint64(csz)
			cl.remote = append(cl.remote, tcEntry{mem: mem})
			if len(cl.remote) >= tc.batch {
				victims := cl.remote
				cl.remote = nil
				posted, err := tc.releaseOrPost(t, csz, victims, true)
				if err == nil {
					tc.telOp(t, telemetry.OpFree, csz, freeTier(posted), start)
				}
				return err
			}
			tc.telOp(t, telemetry.OpFree, csz, telemetry.TierMagazine, start)
			return nil
		}
		cl.entries = append(cl.entries, tcEntry{mem: mem})
		if len(cl.entries) > cl.mark {
			posted, err := tc.flushClass(t, cl)
			if err == nil {
				tc.telOp(t, telemetry.OpFree, csz, freeTier(posted), start)
			}
			return err
		}
		tc.telOp(t, telemetry.OpFree, csz, telemetry.TierMagazine, start)
		return nil
	}
	// Oversized buddy chunks (no current path carves one) return straight to
	// their span.
	if err := tc.lf.returnChunk(t, mem); err != nil {
		return err
	}
	tc.userFrees++
	tc.telOp(t, telemetry.OpFree, csz, telemetry.TierArena, start)
	return nil
}

// growOnStreak advances a class's hit streak and grows its adaptive mark by
// one batch after growStreak consecutive lock-free hits, up to CacheHigh.
// Under memory pressure (pressure.go) marks stay clamped at one batch: a fat
// magazine is exactly the parked memory an emergency pass just reclaimed.
func (tc *ThreadCache) growOnStreak(cl *tcClass) {
	if !tc.adaptive || tc.pressured {
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
// CacheBatch chunks are donated to the transfer cache (a trailing partial
// span included — detach must empty the magazine), and whatever the depot
// refuses — or everything, when it is disabled — is freed into the owning
// arenas. On a sharded pool each span is donated to the depot of the node
// owning its chunks, so remote frees land where their memory lives and a
// full depot on one node never blocks donations to another. Donated spans
// are copies, but the arena fallback reorders victims in place; the slice
// holds nothing of value once release returns, and the caller may reuse its
// backing storage.
func (tc *ThreadCache) release(t *sim.Thread, csz uint32, victims []tcEntry) error {
	if len(tc.depots) == 0 {
		return tc.flush(t, victims)
	}
	if !tc.sharded() {
		depot := tc.depots[0]
		for len(victims) > 0 {
			sn := tc.batch
			if sn > len(victims) {
				sn = len(victims)
			}
			span := make([]tcEntry, sn)
			copy(span, victims[:sn])
			if !depot.put(t, csz, span) {
				break
			}
			victims = victims[sn:]
		}
		return tc.flush(t, victims)
	}
	// Group victims by owning node (stable, so LIFO order survives within a
	// node), then donate each node's run as spans to that node's depot.
	// Unbound arenas (the main arena) count as node 0. Refusals fall into
	// one combined arena flush.
	sort.SliceStable(victims, func(i, j int) bool {
		return tc.nodeOfEntry(victims[i]) < tc.nodeOfEntry(victims[j])
	})
	var leftovers []tcEntry
	i := 0
	for i < len(victims) {
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
				leftovers = append(leftovers, run...)
				break
			}
			run = run[sn:]
		}
		i = j
	}
	return tc.flush(t, leftovers)
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
// as node 0).
func (tc *ThreadCache) nodeOfEntry(e tcEntry) int {
	if e.arena == nil {
		if tc.lf != nil {
			if sp := tc.lf.spanAt(e.mem); sp != nil && sp.node >= 0 {
				return sp.node
			}
		}
		return 0
	}
	return tc.nodeOfArena(e.arena)
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
	t.Charge(sim.Time(tc.costs.CacheFlush))
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
			csz := cl.csz
			if err := tc.release(t, csz, cl.entries); err != nil {
				tc.recordErr(fmt.Errorf("malloc: thread-cache release on detach: %w", err))
			}
			cl.entries = nil
			if len(cl.remote) > 0 {
				// Pending remote frees go home with the magazine: release
				// routes them to their owning nodes' depots.
				if err := tc.release(t, csz, cl.remote); err != nil {
					tc.recordErr(fmt.Errorf("malloc: remote-buffer release on detach: %w", err))
				}
				cl.remote = nil
			}
		}
		tc.caches.set(t.ID(), nil)
	}
	tc.base.DetachThread(t)
}

// Realloc resizes mem with C semantics. A chunk being resized is owned by
// the user, never parked in a cache, so the shared path applies unchanged —
// except buddy-backed chunks, which live outside every arena and are resized
// here (in place within their class, moved through Malloc otherwise).
func (tc *ThreadCache) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	if tc.lf != nil && mem != 0 && size != 0 {
		if sp := tc.lf.spanAt(mem); sp != nil {
			t.MaybeYield()
			t.Charge(sim.Time(tc.costs.TSDRead))
			sz := tc.params.Request2Size(size)
			if sz == sp.csz {
				return mem, nil // same class: the chunk already fits
			}
			np, err := tc.Malloc(t, size)
			if err != nil {
				return 0, fmt.Errorf("realloc: %w", err)
			}
			n := size
			if sp.csz < n {
				n = sp.csz
			}
			// Chunk-format copies route through the main arena by convention
			// (as mmapped chunks do); the addresses are plain mapped memory.
			tc.arenas[0].CopyPayload(t, np, mem, n)
			return np, tc.Free(t, mem)
		}
	}
	return reallocOn(tc, tc.base, t, mem, size)
}

// Calloc allocates zeroed memory.
func (tc *ThreadCache) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	return callocOn(tc, tc.base, t, size)
}

// Stats returns aggregated statistics. Heap.Mallocs/Frees report user-level
// operation counts: the arena-level counters include batch refills and
// exclude parked frees, which would make the designs incomparable (the raw
// per-arena numbers stay available through Arenas()).
func (tc *ThreadCache) Stats() Stats {
	s := tc.sumStats()
	s.Heap.Mallocs = tc.userMallocs
	s.Heap.Frees = tc.userFrees
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
		s.DepotLockAcqs += depot.lockAcqs()
		cs := depot.casStats()
		s.CASAttempts += cs.CASAttempts
		s.CASFails += cs.CASFails
		s.CASRetryCycles += uint64(cs.WaitCycles)
	}
	for _, sh := range tc.shards {
		if sh.cursor != nil {
			cs := sh.cursor.PointStats()
			s.CASAttempts += cs.CASAttempts
			s.CASFails += cs.CASFails
			s.CASRetryCycles += uint64(cs.WaitCycles)
		}
	}
	if tc.lf != nil {
		bs := tc.lf.bStats()
		s.BuddyAllocs = bs.Allocs
		s.BuddyFrees = bs.Frees
		s.BuddySplits = bs.Splits
		s.BuddyMerges = bs.Merges
		s.BuddyGrowLocks = bs.GrowLockAcqs
		s.CASAttempts += bs.CASAttempts
		s.CASFails += bs.CASFails
		s.CASRetryCycles += uint64(bs.RetryCycles)
	}
	if tc.scav != nil {
		sc := tc.scav.Stats()
		s.ScavengeEpochs = sc.Epochs
		s.ScavengeBytes = sc.BytesReleased
	}
	if tc.svc != nil {
		s.SvcParkedChunks, s.SvcParkedBytes = tc.svc.parked()
	}
	return s
}

// ParkedBytes sums the memory parked in every caching tier right now —
// magazines, depot, service mailboxes and the vm reuse cache. Together with
// the address space's ResidentBytes it is the footprint metric experiment D3
// plots.
func (tc *ThreadCache) ParkedBytes() uint64 {
	s := tc.Stats()
	return s.CachedBytes + s.DepotBytes + s.SvcParkedBytes + s.MmapReuseParked
}

// Check verifies every arena plus the cache invariants: every parked chunk
// — magazine or depot — must lie inside the arena recorded for it and appear
// in at most one cache slot across all tiers.
func (tc *ThreadCache) Check() error {
	if err := tc.checkAll(); err != nil {
		return err
	}
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
	if tc.costs.LineAware {
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
// CostParams.LineAware the count is zero by construction (Check enforces it);
// blind it measures how badly sub-line carving interleaved the magazines.
func (tc *ThreadCache) SharedMagazineLines() int {
	line := tc.as.LineSize()
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

var _ Allocator = (*ThreadCache)(nil)
