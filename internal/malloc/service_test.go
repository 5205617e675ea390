package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// svcCosts returns thread-cache costs tuned for small deterministic
// magazines.
func svcCosts() CostParams {
	costs := DefaultCostParams()
	costs.CacheBatch = 4
	costs.CacheHigh = 8
	costs.CacheAdaptive = -1
	return costs
}

// newSvc builds a threadcache-svc allocator whose service thread wakes every
// interval cycles; nil (with the test failed) when construction fails.
func newSvc(t *testing.T, main *sim.Thread, as *vm.AddressSpace, costs CostParams, interval sim.Time) *ThreadCache {
	al, err := newThreadCache(main, KindThreadCacheSvc, as, heap.DefaultParams(), costs)
	if err != nil {
		t.Errorf("newThreadCache: %v", err)
		return nil
	}
	al.svc.interval = interval
	return al
}

// TestServiceMailboxRefillFlushCycle: with the service running, a magazine
// miss is served by a prefetched mailbox span, a magazine flush recycles
// through the mailbox (shelf or box), the box's overflow is drained by the
// next epoch, and Stop leaves nothing parked.
func TestServiceMailboxRefillFlushCycle(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 31)
	err := m.Run(func(main *sim.Thread) {
		// Watermark 1 keeps the shelf cap (16x) small enough that a big
		// free burst overflows past the shelf into the box.
		al := newSvc(t, main, as, svcCosts(), 50000)
		if al == nil {
			return
		}
		al.svc.watermark = 1
		svc := al.Service()
		if svc == nil {
			t.Error("Service() = nil on an offload-configured allocator")
			return
		}
		if ServiceOf(Allocator(al)) != svc {
			t.Error("ServiceOf did not unwrap to the same engine")
		}
		if svc.Running() {
			t.Error("service running before Start")
		}
		svc.Start(main)
		if !svc.Running() {
			t.Error("service not running after Start")
		}
		// Let every node's first epoch stock the seeded shelf.
		main.Sleep(60000)

		// First fill of a small class: the mailbox, not the depot or an
		// arena, should serve it. Enough chunks that the free burst below
		// overflows the 16-span shelf cap into the box.
		var ps []uint64
		for i := 0; i < 160; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		st := al.Stats()
		if st.SvcRefillHits == 0 {
			t.Errorf("SvcRefillHits = 0 after first fills, want seeded prefetch to serve them (misses %d)", st.SvcRefillMisses)
		}
		// Free everything: crossing the high-water mark must post flush
		// spans instead of taking depot locks. The first spans recycle
		// straight onto the shelf; once the shelf is at target the rest
		// queue in the box for the drain.
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st = al.Stats()
		if st.SvcFlushPosts == 0 {
			t.Error("SvcFlushPosts = 0 after flushing a full magazine")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check with spans parked in mailboxes: %v", err)
		}
		// The next epoch drains the posts that overflowed past the shelf.
		main.Sleep(120000)
		st = al.Stats()
		if st.SvcDrains == 0 {
			t.Error("SvcDrains = 0 one epoch after posting")
		}
		if st.SvcEpochs == 0 {
			t.Error("SvcEpochs = 0 with the service running")
		}

		svc.Stop(main)
		if svc.Running() {
			t.Error("service running after Stop")
		}
		st = al.Stats()
		if st.SvcParkedChunks != 0 || st.SvcParkedBytes != 0 {
			t.Errorf("parked %d chunks / %d bytes after Stop, want 0 (drain)", st.SvcParkedChunks, st.SvcParkedBytes)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after Stop: %v", err)
		}
		// The fast paths are inert now: ops still work synchronously.
		p, err := al.Malloc(main, 64)
		if err != nil {
			t.Errorf("Malloc after Stop: %v", err)
			return
		}
		if err := al.Free(main, p); err != nil {
			t.Errorf("Free after Stop: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServiceMailboxCapFallback: once the shelf is at target and the box is
// full, the mailbox refuses the post and the flush falls back to the
// synchronous release path — offload loses the shortcut, never the memory.
func TestServiceMailboxCapFallback(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 37)
	err := m.Run(func(main *sim.Thread) {
		// One box slot per mailbox, a 16-span shelf cap (watermark 1), and
		// an epoch so far out that nothing drains mid-test.
		al := newSvc(t, main, as, svcCosts(), 10_000_000)
		if al == nil {
			return
		}
		al.svc.boxCap = 1
		al.svc.watermark = 1
		al.Service().Start(main)
		main.Sleep(60000) // first epochs only; the next is 10M cycles away

		var ps []uint64
		for i := 0; i < 160; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st := al.Stats()
		if st.SvcFlushPosts == 0 {
			t.Error("SvcFlushPosts = 0: the shelf and the box slot should absorb the first flushes")
		}
		if st.SvcFallbacks == 0 {
			t.Error("SvcFallbacks = 0: overflow flushes must take the synchronous path")
		}
		svc := al.Service()
		if parked := len(svc.nodes[0].box.empty); parked > 1 {
			t.Errorf("box holds %d posts with a 1-slot cap", parked)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		svc.Stop(main)
		if err := al.Check(); err != nil {
			t.Errorf("Check after Stop: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServiceReclaimEmptiesMailboxes: the emergency cascade's mailbox hook
// flushes every parked span straight into the arenas.
func TestServiceReclaimEmptiesMailboxes(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 41)
	err := m.Run(func(main *sim.Thread) {
		al := newSvc(t, main, as, svcCosts(), 10_000_000)
		if al == nil {
			return
		}
		svc := al.Service()
		svc.Start(main)
		main.Sleep(60000) // seeded prefetch parks shelf spans

		st := al.Stats()
		if st.SvcParkedChunks == 0 {
			t.Error("nothing parked after the seeded first epoch")
		}
		freed := svc.reclaim(main)
		if freed == 0 {
			t.Error("reclaim freed 0 bytes with spans parked")
		}
		if chunks, bytes := svc.parked(); chunks != 0 || bytes != 0 {
			t.Errorf("parked %d chunks / %d bytes after reclaim, want 0", chunks, bytes)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after reclaim: %v", err)
		}
		svc.Stop(main)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServiceSingleCascadeDriver is the double-decay regression test: while
// the service runs, its node-0 thread is the elected scavenge driver, app
// threads' inline Ticks are refused, and the epoch count advances at the
// driver's cadence only. Stopping hands the schedule back.
func TestServiceSingleCascadeDriver(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 43)
	err := m.Run(func(main *sim.Thread) {
		costs := svcCosts()
		costs.ScavengeInterval = 100000
		costs.ScavengeDecay = 50
		al := newSvc(t, main, as, costs, 100000)
		if al == nil {
			return
		}
		scav := al.Scavenger()
		if scav == nil {
			t.Error("no scavenger with ScavengeInterval set")
			return
		}
		al.Service().Start(main)
		if scav.Driver() == nil {
			t.Error("no scavenge driver elected at Start")
		}
		// Ten epochs of the classic double-decay setup: a second thread
		// (main) tries to Tick every interval alongside the driver.
		for i := 0; i < 10; i++ {
			main.Sleep(100000)
			if scav.Tick(main) {
				t.Error("non-driver Tick ran a scavenge pass")
			}
		}
		epochs := al.Stats().ScavengeEpochs
		if epochs < 8 || epochs > 12 {
			t.Errorf("ScavengeEpochs = %d over ~10 intervals, want one per interval, not two", epochs)
		}
		al.Service().Stop(main)
		if scav.Driver() != nil {
			t.Error("driver not handed back after Stop")
		}
		// The schedule is shared again: any thread may drive.
		main.Sleep(100000)
		if !scav.Tick(main) {
			t.Error("Tick refused after Stop handed the schedule back")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
