package malloc

import (
	"fmt"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
)

// This file is the SpeedMalloc-style offload refactor (experiment D10): one
// lightweight allocator service thread per NUMA node, pinned to its own CPU,
// doing the bookkeeping the inline design charges to application threads.
//
// App threads and the service thread exchange whole magazine spans through a
// bounded per-node mailbox:
//
//   - a magazine flush or remote-free batch becomes postEmpty — the app
//     thread pays one mailbox post plus the cache-line transfers for the
//     span descriptor, instead of depot locks and arena frees. A local span
//     recycles straight onto the caller's node's prefetch shelf while the
//     shelf is under target; a remote batch is split by owning node and
//     each piece posted into its owner's mailbox, so handed-off memory is
//     instantly claimable where it lives instead of waiting for an epoch to
//     ferry it. A full mailbox (or a stopped service) falls back to the
//     synchronous release path, so offload never loses memory, it only
//     loses the shortcut;
//   - a magazine miss first tries takeFull — a span prefetched, recycled or
//     routed home for that class, again one post plus the line transfers,
//     no lock. A miss records demand and a hit records use: together the
//     class's true per-window refill rate, which sizes the shelf;
//   - the service thread wakes every DefaultServiceInterval cycles and (1)
//     drains box overflow — recycling spans of still-wanted classes into
//     the prefetch shelf, releasing the rest through the ordinary
//     depot/arena routing, (2) tops demanded classes up from the depot,
//     buddy backend or arenas — at least DefaultServiceWatermark spans per
//     class per epoch, deepened by the window's misses, (3) releases the
//     shelf of classes that have gone cold, and (4) — on node 0's thread
//     only — drives the five-stage scavenge cascade, registered as the
//     scavenger's single driver so inline Ticks and stray background loops
//     cannot double-decay an epoch.
//
// The mailbox itself is ordinary Go state mutated only while its owner runs
// — the engine resumes one simulated thread at a time — so the message
// passing is priced (postCost and wakeCost, derived from the machine's
// costs, plus cache-model line transfers) but needs no host
// synchronization. Each class's shelf and working-set books sit in one
// svcClass record, in a table indexed by classSlot like the magazines'.
type Service struct {
	tc        *ThreadCache
	interval  sim.Time
	boxCap    int // max posts parked per node mailbox
	watermark int // prefetched spans kept per demanded class

	// Message pricing, resolved once from the machine: a post or claim is
	// an atomic slot reservation plus the store that makes the payload
	// visible (2*MutexAtomic); the wakeup of a poll that finds work pulls
	// the mailbox lines onto the service core and comes off the timer
	// sleep, cheaper than a full context switch since posters never signal
	// (ContextSwitch/4). spanXfer prices moving a span across caches: one
	// transfer of its descriptor line (head pointer + count) at the cache
	// model's remote-miss price. The chunks themselves move on first touch,
	// exactly as they would coming out of the depot — the mailbox swap
	// replaces the depot's lock acquisition and depotXferWork charge with a
	// wait-free line exchange, which is where the offload's app-side saving
	// comes from.
	postCost sim.Time
	wakeCost sim.Time
	spanXfer sim.Time

	nodes   []*svcNode
	running bool
}

// svcNode is one node's service state: its mailbox and its thread.
type svcNode struct {
	node   int
	box    svcMailbox
	stop   bool
	thread *sim.Thread
}

// svcMailbox is the bounded span-exchange between one node's app threads
// and its service thread.
type svcMailbox struct {
	// classes holds each class's record, keyed by classSlot.
	classes denseTable[*svcClass]
	// empty holds posted flush/remote batches awaiting the drain.
	empty []svcPost
}

// svcClass is one size class of a node's mailbox: its prefetch shelf and
// its working-set books.
type svcClass struct {
	// full holds prefetched spans ready for takeFull (LIFO).
	full [][]tcEntry
	// demand records the window's misses on the class since the last
	// epoch, with a request size that carves it (Request2Size is not
	// invertible, so the class alone cannot drive an arena carve).
	demand svcDemand
	// used records the window's hits. Hits are liveness — a class served
	// perfectly every window must not age off the shelf — and
	// consumption: the shelf target is sized to hits plus misses, the
	// window's true refill rate, not just the shortfall. Sizing to misses
	// alone oscillates: a deepened shelf serves a few windows of pure
	// hits, decays back to the watermark, and the misses return.
	used svcDemand
	// seen puts the class in the node's working set — every class demanded
	// recently — with req the request size that carves it. The prefetcher
	// keeps all of them stocked, not just the last window's misses: a
	// workload rotating through a dozen size classes demands a different
	// subset each window, and restocking only the latest subset caps the
	// hit rate near the rotation's overlap.
	seen bool
	req  uint32
	// idleEpochs counts epochs the class has gone undemanded while in the
	// working set or holding shelved spans; enough in a row (svcIdleLimit)
	// drop it from the working set and release its shelf back through the
	// ordinary routing.
	idleEpochs int
}

// classOf returns (creating if needed) the record of class csz.
func (box *svcMailbox) classOf(csz uint32) *svcClass {
	cl := box.classes.get(classSlot(csz))
	if cl == nil {
		cl = &svcClass{}
		box.classes.set(classSlot(csz), cl)
	}
	return cl
}

// svcIdleLimit is how many demand-free epochs a class survives in the
// working set. Four ≈ two full magazine turnovers of slack, so class
// rotation within a steady working set never churns the shelf.
const svcIdleLimit = 4

// svcSeedMax bounds the classes seeded into every node's working set at
// construction: the small-object band where magazine churn concentrates.
// Seeding lets the first epoch stock the shelf before the app threads'
// initial fills — the one burst of misses demand tracking can never see
// coming — while classes above the band stay purely demand-driven (a
// 32 KB class's watermark would park megabytes nobody asked for).
const svcSeedMax = 256

// svcPost is one posted batch: a span of class csz, local to the node whose
// box holds it — remote batches are split by owning node and posted into the
// owners' mailboxes at flush time (postEmpty), so a box never parks another
// node's memory.
type svcPost struct {
	csz     uint32
	entries []tcEntry
}

// svcDemand is one class's misses or hits in the current epoch's window;
// count 0 means none.
type svcDemand struct {
	req   uint32
	count int
}

// newService builds the offload engine for tc. Threads are not spawned here
// — the harness calls Start once the simulation's main thread exists, and
// Stop before it finishes.
func newService(tc *ThreadCache) *Service {
	s := &Service{
		tc:        tc,
		interval:  DefaultServiceInterval,
		boxCap:    DefaultServiceMailboxCap,
		watermark: DefaultServiceWatermark,
	}
	mach := tc.as.Machine()
	mc := mach.Config().Costs
	s.postCost = 2 * mc.MutexAtomic
	s.wakeCost = mc.ContextSwitch / 4
	s.spanXfer = sim.Time(tc.as.Cache().Costs().MissRemote)
	nodes := mach.Nodes()
	for n := 0; n < nodes; n++ {
		nd := &svcNode{node: n}
		for req := uint32(1); req <= svcSeedMax; req++ {
			csz := tc.params.Request2Size(req)
			if csz > svcSeedMax || csz > cacheMax {
				continue
			}
			if cl := nd.box.classOf(csz); !cl.seen {
				cl.seen, cl.req = true, req
			}
		}
		s.nodes = append(s.nodes, nd)
	}
	return s
}

// Running reports whether the service threads are live (between Start and
// Stop). The mailbox fast paths are inert outside that window, so an
// offload-configured allocator used without Start behaves exactly inline.
func (s *Service) Running() bool { return s.running }

// Start spawns one service thread per node, each pinned to the last CPU of
// its node's block, and elects node 0's thread as the scavenge driver.
// Idempotent while running, and a no-op on a nil Service, so a harness
// starts ServiceOf(al) whatever the kind.
func (s *Service) Start(parent *sim.Thread) {
	if s == nil || s.running {
		return
	}
	s.running = true
	mach := s.tc.as.Machine()
	cpus := mach.Config().CPUs
	per := (cpus + len(s.nodes) - 1) / len(s.nodes)
	for _, n := range s.nodes {
		n.stop = false
		last := (n.node+1)*per - 1
		if last >= cpus {
			last = cpus - 1
		}
		node := n
		n.thread = parent.Spawn(fmt.Sprintf("malloc-svc-%d", n.node), func(t *sim.Thread) {
			s.serve(t, node)
		})
		n.thread.Pin(last)
	}
	if s.tc.scav != nil {
		s.tc.scav.SetDriver(s.nodes[0].thread)
	}
}

// Stop shuts the service down: the fast paths go inert immediately, each
// thread is joined at its next epoch boundary, the scavenge schedule is
// handed back, and every mailbox is drained through the synchronous release
// path so no chunk stays parked in a dead mailbox. A no-op on a nil Service
// or one not running.
func (s *Service) Stop(t *sim.Thread) {
	if s == nil || !s.running {
		return
	}
	s.running = false
	for _, n := range s.nodes {
		n.stop = true
	}
	for _, n := range s.nodes {
		t.Join(n.thread)
		n.thread = nil
	}
	if s.tc.scav != nil {
		s.tc.scav.SetDriver(nil)
	}
	s.emptyAll(func(csz uint32, span []tcEntry) error { return s.tc.release(t, csz, span) })
	for _, n := range s.nodes {
		n.box.classes = denseTable[*svcClass]{}
	}
}

// emptyAll hands every span parked in every mailbox to give — posted batches
// first, then the shelf class by class — and forgets the shelves and the
// working sets, keeping the window's demand.
func (s *Service) emptyAll(give func(csz uint32, span []tcEntry) error) {
	put := func(csz uint32, span []tcEntry) {
		if err := give(csz, span); err != nil {
			s.tc.recordErr(fmt.Errorf("malloc: emptying service mailbox: %w", err))
		}
	}
	for _, n := range s.nodes {
		box := &n.box
		for _, p := range box.empty {
			put(p.csz, p.entries)
		}
		box.empty = nil
		for _, k := range box.classes.keys() {
			cl := box.classes.get(k)
			for _, span := range cl.full {
				put(slotClass(k), span)
			}
			cl.full, cl.seen, cl.idleEpochs = nil, false, 0
		}
	}
}

// serve is one service thread's body: run an epoch, sleep an interval,
// repeat until stopped. The first epoch runs immediately so the seeded
// working set is stocked before the app threads' initial fills arrive —
// sleeping first would leave the whole warmup burst to the synchronous
// paths.
func (s *Service) serve(t *sim.Thread, n *svcNode) {
	for {
		s.epoch(t, n)
		t.Sleep(s.interval)
		if n.stop {
			return
		}
	}
}

// boxFor returns the mailbox serving node (clamped, so node-blind threads on
// out-of-range nodes still land somewhere deterministic).
func (s *Service) boxFor(node int) *svcNode {
	if node < 0 || node >= len(s.nodes) {
		node = 0
	}
	return s.nodes[node]
}

// targetFor is the shelf depth the service keeps prefetched for a class: at
// least the watermark, deepened to the class's refill rate over the current
// window — hits plus misses, one span per refill — bounded at 16x the
// watermark so a single hot class cannot hoard the shelf. The bound is
// generous on purpose: a shelf at its target keeps the flush->refill
// circulation inside the mailboxes, while overflow leaks to the depot only
// for the prefetcher to buy it back under the depot lock next epoch.
func (s *Service) targetFor(cl *svcClass) int {
	target := cl.demand.count + cl.used.count
	if target < s.watermark {
		target = s.watermark
	}
	if lim := 16 * s.watermark; target > lim {
		target = lim
	}
	return target
}

// takeFull is the app-thread refill fast path: claim a prefetched span of
// class csz from the caller's node mailbox. A miss records demand (req is a
// request size that carves csz) and a hit records use — together they give
// the next epoch the class's true per-window refill rate to size the shelf
// against, and either keeps the class alive in the working set. Only active
// while the service runs.
func (s *Service) takeFull(t *sim.Thread, csz, req uint32) ([]tcEntry, bool) {
	if !s.running {
		return nil, false
	}
	box := &s.boxFor(t.Node()).box
	t.Charge(s.postCost)
	cl := box.classOf(csz)
	var span []tcEntry
	if n := len(cl.full); n > 0 {
		span = cl.full[n-1]
		cl.full = cl.full[:n-1]
	} else {
		// Nothing prefetched — claim a matching posted flush directly: the
		// same wait-free exchange, just before the service thread got to
		// recycle it. This keeps the flush -> refill loop inside the mailbox
		// at full churn rates, when a whole magazine can turn over within
		// one service epoch.
		for i := len(box.empty) - 1; i >= 0; i-- {
			if p := box.empty[i]; p.csz == csz {
				box.empty = append(box.empty[:i], box.empty[i+1:]...)
				span = p.entries
				break
			}
		}
	}
	if len(span) == 0 {
		cl.demand.req = req
		cl.demand.count++
		s.tc.stats.SvcRefillMisses++
		return nil, false
	}
	t.Charge(s.spanXfer)
	cl.used.req = req
	cl.used.count++
	s.tc.stats.SvcRefillHits++
	return span, true
}

// postEmpty is the app-thread flush fast path: hand a span of class csz to
// the mailboxes instead of taking depot locks. A local span goes straight
// onto the caller's node's own prefetch shelf while it has room — the
// flush->refill circulation closing in one hop, no service handling at all —
// with the overflow waiting in the box for the drain. A remote batch is
// split by owning node right here and each piece posted into its owner's
// mailbox: one post and one descriptor-line transfer per destination buys
// the owner instantly claimable local inventory, where parking the batch in
// the local box would strand it until a (possibly saturated) service epoch
// ferried it over. A destination whose shelf is at target and whose box is
// full degrades to the synchronous release path for that piece only.
// Returns false — caller must release synchronously — when the service is
// stopped or the caller's own mailbox refuses a local flush. The victims
// are copied: release's arena fallback reorders its argument in place and
// flushClass reuses the backing array.
func (s *Service) postEmpty(t *sim.Thread, csz uint32, victims []tcEntry, remote bool) bool {
	if !s.running {
		return false
	}
	if len(victims) == 0 {
		return true
	}
	home := t.Node()
	if home < 0 || home >= len(s.nodes) {
		home = 0
	}
	if !remote {
		span := make([]tcEntry, len(victims))
		copy(span, victims)
		if s.postGroup(t, home, csz, span) {
			return true
		}
		s.tc.stats.SvcFallbacks++
		return false
	}
	byNode := make([][]tcEntry, len(s.nodes))
	for _, e := range victims {
		d := s.tc.nodeOfEntry(e)
		if d < 0 || d >= len(s.nodes) {
			d = home
		}
		byNode[d] = append(byNode[d], e)
	}
	for d, group := range byNode {
		if len(group) == 0 {
			continue
		}
		if !s.postGroup(t, d, csz, group) {
			s.tc.stats.SvcFallbacks++
			if err := s.tc.release(t, csz, group); err != nil {
				s.tc.recordErr(fmt.Errorf("malloc: service home route: %w", err))
			}
		}
	}
	return true
}

// postGroup parks one already-copied span in node d's mailbox: on the
// prefetch shelf while it is under target (instantly claimable), in the box
// for the drain otherwise. False means the mailbox refused it.
func (s *Service) postGroup(t *sim.Thread, d int, csz uint32, span []tcEntry) bool {
	box := &s.nodes[d].box
	if cl := box.classOf(csz); len(cl.full) < s.targetFor(cl) {
		t.Charge(s.postCost + s.spanXfer)
		cl.full = append(cl.full, span)
		s.tc.stats.SvcFlushPosts++
		return true
	}
	if len(box.empty) >= s.boxCap {
		return false
	}
	t.Charge(s.postCost + s.spanXfer)
	box.empty = append(box.empty, svcPost{csz: csz, entries: span})
	s.tc.stats.SvcFlushPosts++
	return true
}

// epoch is one service pass over a node's mailbox: drain posts, prefetch
// demanded classes, shed cold shelf spans, and (node 0) drive the scavenger.
func (s *Service) epoch(t *sim.Thread, n *svcNode) {
	tc := s.tc
	box := &n.box
	start := t.Now()
	t.Charge(s.postCost) // the poll
	tc.stats.SvcEpochs++
	worked := false

	// 1. Drain posted spans — all local to this node, remote batches having
	// been routed home at post time. A span goes straight back onto the
	// prefetch shelf while it has room — the cheapest refill there is, and
	// the shelf decay below sheds it if the class goes cold; the overflow
	// takes the ordinary release routing (depot donation, arena frees),
	// charged to this thread instead of the app thread that flushed.
	posts := box.empty
	box.empty = nil
	if len(posts) > 0 {
		// The logical wakeup: the poll found work, so the service pays the
		// cost of bringing the worker onto the mailbox (the app-side posts
		// never block or signal anything — this is a polling design).
		t.Charge(s.wakeCost)
	}
	for _, p := range posts {
		opStart := t.Now()
		t.Charge(s.postCost + s.spanXfer)
		if cl := box.classOf(p.csz); len(cl.full) < s.targetFor(cl) {
			cl.full = append(cl.full, p.entries)
		} else if err := tc.release(t, p.csz, p.entries); err != nil {
			tc.recordErr(fmt.Errorf("malloc: service drain: %w", err))
		}
		tc.stats.SvcDrains++
		tc.telOp(t, telemetry.OpMailbox, p.csz, telemetry.TierService, opStart)
		worked = true
	}

	// 2. Fold the window's refills — misses and hits both — into the
	// working set, then top every working-set class up to its target depth:
	// the window's refill rate, floored at the watermark. A rotating
	// workload finds a span shelved whichever class it lands on next, and a
	// class served perfectly stays stocked instead of aging off mid-streak.
	for _, k := range box.classes.keys() {
		cl := box.classes.get(k)
		if cl.demand.count > 0 {
			cl.seen, cl.req, cl.idleEpochs = true, cl.demand.req, 0
		}
		if cl.used.count > 0 {
			cl.seen, cl.req, cl.idleEpochs = true, cl.used.req, 0
		}
		if !cl.seen {
			continue
		}
		// Top up incrementally: a watermark's worth of spans per class per
		// epoch, deepened by the misses the window actually saw — each miss
		// was an app thread paying depot prices, so buying that many back
		// is self-correcting, while buying the whole hit+miss shortfall at
		// once makes the epoch itself the bottleneck (every span costs a
		// lock down there) and a long epoch is exactly what lets the
		// mailbox overflow into synchronous fallbacks. The steady supply
		// is the flush/route circulation; this loop only mends leaks.
		csz := slotClass(k)
		target := s.targetFor(cl)
		buy := s.watermark + cl.demand.count
		for fetched := 0; len(cl.full) < target && fetched < buy; fetched++ {
			opStart := t.Now()
			span := s.fetchSpan(t, n.node, csz, cl.req)
			if len(span) == 0 {
				break
			}
			cl.full = append(cl.full, span)
			tc.stats.SvcPrefetches++
			tc.telOp(t, telemetry.OpMailbox, csz, telemetry.TierService, opStart)
			worked = true
		}
	}

	// 3. Age the working set and reset the window: svcIdleLimit epochs
	// with no demand and a class drops out, its shelf returning through the
	// ordinary routing. Shelved classes outside the working set — recycled
	// drains that were never demanded — age on the same clock. (A class
	// whose shelf a hit emptied was folded into the working set above.)
	// This is a second walk, after every top-up, because a decaying
	// shelf's release feeds the tiers a later top-up would carve from.
	for _, k := range box.classes.keys() {
		cl := box.classes.get(k)
		hot := cl.demand.count > 0 || cl.used.count > 0
		cl.demand, cl.used = svcDemand{}, svcDemand{}
		if hot || !cl.seen && len(cl.full) == 0 {
			continue
		}
		cl.idleEpochs++
		if cl.idleEpochs < svcIdleLimit {
			continue
		}
		csz := slotClass(k)
		for _, span := range cl.full {
			if err := tc.release(t, csz, span); err != nil {
				tc.recordErr(fmt.Errorf("malloc: service shelf decay: %w", err))
			}
			worked = true
		}
		cl.full, cl.seen, cl.idleEpochs = nil, false, 0
	}

	// 4. Node 0's thread is the elected scavenge driver (SetDriver): the
	// five-stage cascade runs here, off every app thread's critical path.
	if n.node == 0 && tc.scav != nil {
		scavStart := t.Now()
		if tc.scav.Tick(t) && tc.tel != nil {
			tc.tel.Span(t, "scavenge pass", "scavenge", scavStart)
			tc.tel.MaybeSample(t)
		}
	}
	if worked && tc.tel != nil {
		tc.tel.Span(t, fmt.Sprintf("service epoch n%d", n.node), "service", start)
	}
}

// fetchSpan acquires one span of class csz for node's shelf: depot first,
// then the buddy backend, then a batch carved from the node's shard arenas.
// Returns nil when nothing can serve it (including out-of-memory — prefetch
// under pressure just stops; the app thread's own path handles the OOM).
func (s *Service) fetchSpan(t *sim.Thread, node int, csz, req uint32) []tcEntry {
	tc := s.tc
	if depot := tc.depotFor(node); depot != nil {
		if span, ok := depot.get(t, csz); ok {
			return span
		}
	}
	if tc.lf != nil {
		entries, err := tc.lf.refill(t, node, csz, tc.batch)
		if err != nil {
			if !IsNoMem(err) {
				tc.recordErr(fmt.Errorf("malloc: service prefetch: %w", err))
			}
			return nil
		}
		return entries
	}
	if req == 0 {
		return nil
	}
	// Arena carve: one lock on a shard arena with room, a batch of chunks.
	// The main arena is excluded: chunks it carves would re-home the app
	// threads that consume them onto the main arena and its per-op slosh
	// tax — inline refills never serve magazine spans from main either
	// (home arenas come from growPool), so prefetch must not introduce it.
	sh := tc.shards[0]
	if tc.sharded() && node >= 0 && node < len(tc.shards) {
		sh = tc.shards[node]
	}
	for _, a := range sh.arenas {
		if a.IsMain {
			continue
		}
		if span := s.carve(t, a, csz, req); len(span) > 0 {
			return span
		}
	}
	// No existing sub-arena could serve: grow the shard's pool, exactly as
	// an inline refill migrating off a capped home arena would. This also
	// covers the bootstrap — node shards start empty (node 0 with only
	// main), so the seeded first epoch needs the service thread to grow the
	// node's first sub-arena ahead of the first app thread, which then
	// adopts it as a home arena. growPool failing (pool at its bound, or
	// out of memory) just ends the prefetch; the app's own path handles it.
	a, err := tc.growPool(t, sh)
	if err != nil {
		return nil
	}
	return s.carve(t, a, csz, req)
}

// carve batches one span of class csz out of arena a under its lock,
// charged like an inline batch refill (to the service thread).
func (s *Service) carve(t *sim.Thread, a *heap.Arena, csz, req uint32) []tcEntry {
	tc := s.tc
	t.Lock(a.Lock)
	t.Charge(sim.Time(cacheRefillWork + tc.costs.WorkMalloc))
	var span []tcEntry
	for i := 0; i < tc.batch; i++ {
		p, err := a.Malloc(t, req)
		if err != nil {
			break
		}
		if got := a.ChunkSizeOf(t, p); got != csz {
			// The request no longer carves this class (alignment or
			// params drift): undo and give up on arena prefetch.
			if ferr := a.Free(t, p); ferr != nil {
				tc.recordErr(ferr)
			}
			break
		}
		span = append(span, tcEntry{p, a})
	}
	t.Unlock(a.Lock)
	return span
}

// reclaim empties every mailbox straight into the arenas for the emergency
// cascade: parked spans are exactly the memory pressure wants back. The
// window's demand survives, so the next epoch restocks what is in use.
func (s *Service) reclaim(t *sim.Thread) {
	s.emptyAll(func(_ uint32, span []tcEntry) error { return s.tc.flush(t, span) })
}

// parked reports the chunks and bytes currently held across all mailboxes.
func (s *Service) parked() (int, uint64) {
	chunks, bytes := 0, uint64(0)
	for _, n := range s.nodes {
		for _, p := range n.box.empty {
			chunks += len(p.entries)
			bytes += uint64(len(p.entries)) * uint64(p.csz)
		}
		for _, k := range n.box.classes.keys() {
			for _, span := range n.box.classes.get(k).full {
				chunks += len(span)
				bytes += uint64(len(span)) * uint64(slotClass(k))
			}
		}
	}
	return chunks, bytes
}

// check walks every mailbox entry through the thread cache's ownership
// validator, extending the "parked in at most one place" invariant to the
// service tier.
func (s *Service) check(seen map[uint64]bool, owns func(tcEntry) error) error {
	for _, n := range s.nodes {
		verify := func(span []tcEntry) error {
			for _, e := range span {
				if seen[e.mem] {
					return fmt.Errorf("malloc: chunk 0x%x cached twice (service mailbox n%d)", e.mem, n.node)
				}
				seen[e.mem] = true
				if err := owns(e); err != nil {
					return fmt.Errorf("malloc: service mailbox n%d: %w", n.node, err)
				}
			}
			return nil
		}
		for _, p := range n.box.empty {
			if err := verify(p.entries); err != nil {
				return err
			}
		}
		for _, k := range n.box.classes.keys() {
			for _, span := range n.box.classes.get(k).full {
				if err := verify(span); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Service returns the allocator's offload engine, nil for the inline kinds.
// The harness uses it to start the per-node threads once the simulation's
// main thread exists and to stop them before the run ends.
func (tc *ThreadCache) Service() *Service { return tc.svc }

// ServiceOf returns al's offload engine, nil for kinds without one.
func ServiceOf(al Allocator) *Service {
	if p, ok := al.(interface{ Service() *Service }); ok {
		return p.Service()
	}
	return nil
}
