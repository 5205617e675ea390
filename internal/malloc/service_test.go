package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// svcCosts returns thread-cache costs with deterministic fixed marks.
func svcCosts() CostParams {
	costs := DefaultCostParams()
	costs.CacheAdaptive = -1
	return costs
}

// newSvc builds a threadcache-svc allocator with small magazines (4-chunk
// refills, a high-water mark of 8) whose service thread wakes every
// interval cycles; nil (with the test failed) when construction fails.
func newSvc(t *testing.T, main *sim.Thread, as *vm.AddressSpace, costs CostParams, interval sim.Time) *ThreadCache {
	al, err := newThreadCache(main, KindThreadCacheSvc, as, heap.DefaultParams(), costs)
	if err != nil {
		t.Errorf("newThreadCache: %v", err)
		return nil
	}
	al.batch, al.highWater = 4, 8
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

// TestServiceWorkingSetAging pins the mailbox's working-set clock through
// Stats alone. On one node SvcEpochs counts the service thread's epochs, and
// an epoch never yields, so a poll between epochs sees each one whole.
func TestServiceWorkingSetAging(t *testing.T) {
	const interval = 100_000
	// run builds a one-node threadcache-svc allocator, calls before (when
	// set) while the service is still stopped, starts it and calls each
	// after every epoch until it returns false.
	run := func(t *testing.T, seed uint64, before func(main *sim.Thread, al *ThreadCache) bool,
		each func(main *sim.Thread, al *ThreadCache, st Stats) bool) {
		m, as := newWorld(2, seed)
		err := m.Run(func(main *sim.Thread) {
			al := newSvc(t, main, as, svcCosts(), interval)
			if al == nil || before != nil && !before(main, al) {
				return
			}
			al.Service().Start(main)
			for polls, epochs := 0, uint64(0); ; polls++ {
				if polls == 400 {
					t.Errorf("only %d epochs in 100 intervals", epochs)
					break
				}
				main.Sleep(interval / 4)
				st := al.Stats()
				if st.SvcEpochs == epochs {
					continue
				}
				epochs = st.SvcEpochs
				if !each(main, al, st) {
					break
				}
			}
			al.Service().Stop(main)
			if err := al.Check(); err != nil {
				t.Errorf("Check after Stop: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// alloc mallocs n chunks of size and keeps them live; false (with the
	// test failed) when one fails.
	alloc := func(t *testing.T, main *sim.Thread, al *ThreadCache, size uint32, n int) bool {
		for i := 0; i < n; i++ {
			if _, err := al.Malloc(main, size); err != nil {
				t.Errorf("Malloc(%d): %v", size, err)
				return false
			}
		}
		return true
	}

	// With no demand, the seeded shelves stay parked while SvcEpochs <
	// svcIdleLimit and all go at epoch svcIdleLimit; nothing restocks them.
	t.Run("idle", func(t *testing.T) {
		var prefetched uint64
		run(t, 47, nil, func(_ *sim.Thread, _ *ThreadCache, st Stats) bool {
			switch {
			case st.SvcEpochs == 1:
				prefetched = st.SvcPrefetches
				if prefetched == 0 || st.SvcParkedBytes == 0 {
					t.Errorf("epoch 1: %d prefetches, %d bytes parked; want the seeded shelves stocked",
						st.SvcPrefetches, st.SvcParkedBytes)
				}
			case st.SvcEpochs < svcIdleLimit:
				if st.SvcParkedBytes == 0 {
					t.Errorf("epoch %d: shelves released before %d idle epochs", st.SvcEpochs, svcIdleLimit)
				}
			default:
				if st.SvcParkedBytes != 0 {
					t.Errorf("epoch %d: %d bytes still parked after %d idle epochs",
						st.SvcEpochs, st.SvcParkedBytes, svcIdleLimit)
				}
			}
			if st.SvcPrefetches != prefetched {
				t.Errorf("epoch %d: prefetches %d -> %d with no demand", st.SvcEpochs, prefetched, st.SvcPrefetches)
			}
			return st.SvcEpochs < 2*svcIdleLimit
		})
	})

	// A class hit every epoch never goes: one magazine refill per window
	// (batch chunks, all kept live) takes one shelved span, the epoch tops
	// the shelf back up to the watermark, and once the idle seeded classes
	// have gone that shelf is exactly what stays parked.
	t.Run("hot", func(t *testing.T) {
		run(t, 53, nil, func(main *sim.Thread, al *ThreadCache, st Stats) bool {
			if st.SvcRefillMisses != 0 {
				t.Errorf("epoch %d: %d refill misses on a stocked class", st.SvcEpochs, st.SvcRefillMisses)
			}
			if st.SvcEpochs >= svcIdleLimit {
				want := uint64(al.svc.watermark*al.batch) * uint64(al.params.Request2Size(64))
				if st.SvcParkedBytes != want {
					t.Errorf("epoch %d: %d bytes parked, want the hot class's full shelf (%d)",
						st.SvcEpochs, st.SvcParkedBytes, want)
				}
			}
			if st.SvcEpochs > 1 && st.SvcRefillHits != st.SvcEpochs-1 {
				t.Errorf("epoch %d: %d refill hits, want one per window", st.SvcEpochs, st.SvcRefillHits)
			}
			return alloc(t, main, al, 64, al.batch) && st.SvcEpochs < 3*svcIdleLimit
		})
	})

	// A class whose last shelved span a hit took is restocked at the next
	// epoch: the next refill is a hit again, not a miss.
	t.Run("emptied", func(t *testing.T) {
		var hits, prefetched uint64
		run(t, 59, nil, func(main *sim.Thread, al *ThreadCache, st Stats) bool {
			switch st.SvcEpochs {
			case 1:
				// Take every shelved span of the class, one refill per span.
				if !alloc(t, main, al, 128, al.svc.watermark*al.batch) {
					return false
				}
				after := al.Stats()
				if got := after.SvcRefillHits; got != uint64(al.svc.watermark) || after.SvcRefillMisses != 0 {
					t.Errorf("emptying the shelf: %d hits, %d misses; want %d hits",
						got, after.SvcRefillMisses, al.svc.watermark)
				}
				hits, prefetched = after.SvcRefillHits, after.SvcPrefetches
				return true
			default:
				if got := st.SvcPrefetches - prefetched; got != uint64(al.svc.watermark) {
					t.Errorf("epoch 2 restocked %d spans, want %d", got, al.svc.watermark)
				}
				if !alloc(t, main, al, 128, 1) {
					return false
				}
				after := al.Stats()
				if after.SvcRefillHits != hits+1 || after.SvcRefillMisses != 0 {
					t.Errorf("refill after the restock: hits %d -> %d, %d misses; want a hit",
						hits, after.SvcRefillHits, after.SvcRefillMisses)
				}
				return false
			}
		})
	})

	// A class outside the working set that holds shelved spans ages on the
	// same clock: chunks of a class above the seeded band, allocated while
	// the service was stopped (so no refill recorded demand) and freed after
	// epoch 1, recycle onto the shelf and leave svcIdleLimit epochs later,
	// one epoch after the seeded shelves.
	t.Run("drained", func(t *testing.T) {
		const size = 2 * svcSeedMax
		var ps []uint64
		run(t, 61, func(main *sim.Thread, al *ThreadCache) bool {
			for i := 0; i < 40*al.batch; i++ {
				p, err := al.Malloc(main, size)
				if err != nil {
					t.Errorf("Malloc(%d): %v", size, err)
					return false
				}
				ps = append(ps, p)
			}
			return true
		}, func(main *sim.Thread, al *ThreadCache, st Stats) bool {
			switch {
			case st.SvcEpochs == 1:
				for _, p := range ps {
					if err := al.Free(main, p); err != nil {
						t.Errorf("Free: %v", err)
						return false
					}
				}
			case st.SvcEpochs <= svcIdleLimit:
				if st.SvcParkedBytes == 0 {
					t.Errorf("epoch %d: the drained shelf left before %d idle epochs", st.SvcEpochs, svcIdleLimit)
				}
			default:
				if st.SvcParkedBytes != 0 {
					t.Errorf("epoch %d: %d bytes still parked", st.SvcEpochs, st.SvcParkedBytes)
				}
			}
			if st.SvcRefillHits+st.SvcRefillMisses != 0 {
				t.Errorf("epoch %d: %d refills reached the mailbox, want none", st.SvcEpochs, st.SvcRefillHits+st.SvcRefillMisses)
			}
			return st.SvcEpochs < 2*svcIdleLimit
		})
	})
}
