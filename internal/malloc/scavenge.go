package malloc

import (
	"cmp"
	"fmt"
	"sort"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
)

// sortedKeys returns m's keys in ascending order. Every walk over an
// allocator-side map must go through this (or equivalent sorting): raw map
// iteration order would leak Go runtime randomness into the simulation and
// break run-for-run determinism.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// This file wires the thread-cache allocator into the reclamation subsystem
// (internal/scavenge). Each caching tier registers as a scavenge.Source, and
// the sweep order is the reclamation cascade:
//
//	magazines -> depot -> binned pages -> reuse cache -> arena-top trim
//
// Idle magazines and cold depot spans free their chunks into the owning
// arenas (tcmalloc's ReleaseToSpans direction), the binned-page source hands
// back the interiors of free chunks that coalesced somewhere the top trim
// cannot reach (tcmalloc's PageHeap release), the vm reuse cache unmaps
// regions that have sat parked for a full epoch, and finally the trim source
// hands each arena's free top tail back to the kernel. Chunks the earlier
// sources free into the arenas carry fresh idle stamps, so they ride out to
// the kernel on the following epochs once they have proven cold.
//
// All sources iterate their state in sorted order (thread IDs, size
// classes), never raw map order: a scavenge pass must be a pure function of
// the simulation state for runs to stay deterministic.

// magazineSource decays the magazines of threads that have stopped
// allocating: a thread cache idle since before the cutoff loses
// decayPercent of each class's oldest entries, flushed straight into the
// owning arenas (not the depot — the point is reclamation, not another
// parking tier).
type magazineSource struct{ tc *ThreadCache }

func (s magazineSource) Name() string { return "magazines" }

func (s magazineSource) Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64 {
	tc := s.tc
	released := uint64(0)
	for _, tid := range tc.caches.keys() {
		c := tc.caches.get(tid)
		if c.lastOp >= cutoff {
			continue // the owner is still allocating; leave its magazines hot
		}
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			// A pending remote buffer in an idle cache flushes whole: it is
			// memory in transit to another node, not a working set worth
			// decaying gently, and its owner has stopped pushing it home.
			if len(cl.remote) > 0 {
				n := len(cl.remote)
				if err := tc.flush(t, cl.remote); err != nil {
					tc.recordErr(fmt.Errorf("malloc: scavenging remote buffer: %w", err))
				}
				cl.remote = nil
				tc.stats.ScavengeMagChunks += uint64(n)
				released += uint64(n) * uint64(cl.csz)
			}
			if len(cl.entries) == 0 {
				continue
			}
			// The share rarely divides evenly; the remainder carries over in
			// hundredths-of-a-chunk so small classes decay at the configured
			// rate instead of the 100%/epoch a rounded-up minimum would give
			// a 1-entry class (or 25%/epoch a 4-entry class at 1% decay).
			total := len(cl.entries)*decayPercent + cl.decayRem
			n := total / 100
			cl.decayRem = total % 100
			if n == 0 {
				continue
			}
			if err := tc.flush(t, cl.entries[:n]); err != nil {
				tc.recordErr(fmt.Errorf("malloc: scavenging idle magazine: %w", err))
			}
			copy(cl.entries, cl.entries[n:])
			cl.entries = cl.entries[:len(cl.entries)-n]
			cl.streak = 0
			tc.stats.ScavengeMagChunks += uint64(n)
			released += uint64(n) * uint64(cl.csz)
		}
	}
	return released
}

// depotSource returns cold depot spans to the owning arenas: any class that
// has not exchanged a span since the cutoff sheds decayPercent of its spans
// per epoch, freed chunk by chunk under the arena locks (one acquisition per
// arena, via the same sorted flush the magazines use). On a sharded pool the
// per-node depots are swept in node order, each flushing into its own
// node's arenas, so decay stays node-local.
type depotSource struct{ tc *ThreadCache }

func (s depotSource) Name() string { return "depot" }

func (s depotSource) Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64 {
	spans, chunks, bytes := s.tc.drainDepots(t, cutoff, decayPercent)
	s.tc.stats.ScavengeDepotSpans += uint64(spans)
	s.tc.stats.ScavengeDepotChunks += uint64(chunks)
	return bytes
}

// drainDepots sheds decayPercent of every depot class idle since cutoff into
// the owning arenas, depot by depot (node order), and reports the spans,
// chunks and bytes moved. The scavenger's depot stage and the emergency
// cascade (cutoff farFuture, 100%) both drain through here.
func (tc *ThreadCache) drainDepots(t *sim.Thread, cutoff sim.Time, decayPercent int) (spans, chunks int, bytes uint64) {
	for _, depot := range tc.depots {
		victims, n, b := depot.scavenge(t, cutoff, decayPercent)
		if n == 0 {
			continue
		}
		if err := tc.flush(t, victims); err != nil {
			tc.recordErr(fmt.Errorf("malloc: draining depot spans: %w", err))
		}
		spans += n
		chunks += len(victims)
		bytes += b
	}
	return spans, chunks, bytes
}

// arenaPageSource is the PageHeap-style stage between the depot and the
// reuse cache: it walks every arena's bins and releases the whole pages
// strictly inside free chunks that have sat binned since before the cutoff
// (Arena.ReleaseBinned). This is the only stage that reaches memory flushed
// into the middle of a multi-segment sub-arena, where the top trim below
// never looks. Age is the policy, like the reuse tier: a cold binned chunk
// is released whole, and the next carve-out from it pays the refault cost.
//
// Arenas active since the cutoff are skipped entirely, same as the trim
// source: a mid-burst arena turns its bins over constantly, and releasing a
// chunk the churn re-carves two epochs later just buys a madvise/refault
// ping-pong with no lasting footprint win.
type arenaPageSource struct{ tc *ThreadCache }

func (s arenaPageSource) Name() string { return "binned-pages" }

func (s arenaPageSource) Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64 {
	tc := s.tc
	released := tc.forEachIdleArena(t, cutoff, func(a *heap.Arena) uint64 {
		return a.ReleaseBinned(t, cutoff, tc.minBinBytes, tc.binPad)
	})
	tc.stats.ScavengeBinBytes += released
	return released
}

// forEachIdleArena runs fn under the lock of every arena with no
// malloc-family operation since cutoff and sums the bytes fn releases. It is
// the one copy of the page-release stages' skip-busy policy: trimming or
// madvising a mid-burst arena only forces the next carve-out to refault.
// The walk goes shard by shard (node order, creation order within a shard)
// and then over any arenas outside the pool, so page release stays grouped
// by node on a sharded pool; on the flat single-shard pool this is exactly
// the old creation-order walk.
func (tc *ThreadCache) forEachIdleArena(t *sim.Thread, cutoff sim.Time, fn func(*heap.Arena) uint64) uint64 {
	// Every arena is in exactly one shard: newBase's main arena sits in
	// shard 0 and growPool appends to both lists, so the shard walk covers
	// the pool completely (and IS the flat creation-order walk when there
	// is a single shard).
	released := uint64(0)
	for _, sh := range tc.shards {
		for _, a := range sh.arenas {
			if a.LastOp() >= cutoff {
				continue
			}
			t.Lock(a.Lock)
			released += fn(a)
			t.Unlock(a.Lock)
		}
	}
	return released
}

// reuseSource expires parked mmap regions: anything the vm reuse cache has
// held since before the cutoff is munmapped for real. Age, not decay
// percentage, is the policy here — a parked region is all-or-nothing.
type reuseSource struct{ tc *ThreadCache }

func (s reuseSource) Name() string { return "mmap-reuse" }

func (s reuseSource) Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64 {
	_, bytes, err := s.tc.as.EvictReuseBefore(t, cutoff)
	if err != nil {
		s.tc.recordErr(err)
	}
	s.tc.stats.ScavengeReuseBytes += bytes
	return bytes
}

// trimSource is the terminal stage: it walks every arena and releases the
// resident tail of its top chunk past the configured pad, which is where the
// chunks freed by the earlier sources end up once they coalesce. Arenas with
// a malloc-family operation since the cutoff are skipped: trimming a
// mid-burst arena's top only forces the very next carve-out to refault the
// pages back in. An arena the pass itself freed into (a magazine or depot
// flush earlier in the same pass) counts as active too, so its trim waits
// until those stages stop flushing — with geometric decay that is a handful
// of epochs for a fat magazine, after which the coalesced chunks go out.
type trimSource struct{ tc *ThreadCache }

func (s trimSource) Name() string { return "arena-trim" }

func (s trimSource) Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64 {
	tc := s.tc
	released := tc.forEachIdleArena(t, cutoff, func(a *heap.Arena) uint64 {
		return a.TrimTop(t, tc.trimPad)
	})
	tc.stats.ScavengeTrimBytes += released
	return released
}

// newScavenger builds the scavenger for a thread cache from its (already
// default-filled) cost params and registers the tier sources in cascade
// order. It is the single source of truth for the reclamation tuning: the
// trim pad lives here (on tc, read by the trim source) and in no second copy
// inside the engine's policy.
func (tc *ThreadCache) newScavenger(costs CostParams) *scavenge.Scavenger {
	if pad := costs.ScavengeTrimPad; pad > 0 {
		tc.trimPad = uint32(pad)
	}
	if costs.ScavengeMinBinBytes > 0 {
		tc.minBinBytes = uint64(costs.ScavengeMinBinBytes)
		switch {
		case costs.ScavengeBinPad == 0:
			tc.binPad = DefaultScavengeBinPad
		case costs.ScavengeBinPad > 0:
			tc.binPad = uint64(costs.ScavengeBinPad)
		}
	}
	sc := scavenge.New(scavenge.Policy{
		Interval:     sim.Time(costs.ScavengeInterval),
		DecayPercent: costs.ScavengeDecay,
		Work:         costs.ScavengeWork,
	})
	sc.Register(magazineSource{tc})
	if len(tc.depots) > 0 {
		sc.Register(depotSource{tc})
	}
	if tc.minBinBytes > 0 {
		sc.Register(arenaPageSource{tc})
	}
	sc.Register(reuseSource{tc})
	sc.Register(trimSource{tc})
	return sc
}

// Scavenger returns the allocator's reclamation engine, nil when scavenging
// is disabled. The bench harness uses it to run the background scavenger
// thread and to force passes at phase boundaries.
func (tc *ThreadCache) Scavenger() *scavenge.Scavenger { return tc.scav }

// maybeScavenge is the inline hook: allocator entry points call it once per
// operation, and it runs a decay pass on the caller when the epoch boundary
// has passed. Free ride for busy phases; idle phases rely on Background.
func (tc *ThreadCache) maybeScavenge(t *sim.Thread) {
	if tc.scav == nil {
		return
	}
	start := t.Now()
	if tc.scav.Tick(t) && tc.tel != nil {
		// A pass ran: trace it, and give the time series a point right
		// after the reclaim (the footprint gauges just moved).
		tc.tel.Span(t, "scavenge pass", "scavenge", start)
		tc.tel.MaybeSample(t)
	}
}
