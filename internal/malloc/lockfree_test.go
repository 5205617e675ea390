package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"

	"mtmalloc/internal/cache"
)

// TestLockFreeBatchAccounting pins the lock-free design's refill and flush
// arithmetic with adaptive sizing off: the counters must mirror the thread
// cache's, with the arena and depot locks replaced by buddy CAS traffic.
func TestLockFreeBatchAccounting(t *testing.T) {
	m, as := newWorld(2, 41)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.CacheAdaptive = -1
		al, err := newThreadCache(main, KindLockFree, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("newThreadCache: %v", err)
			return
		}
		al.batch, al.highWater = 4, 8
		al.AttachThread(main)
		p, err := al.Malloc(main, 100)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		st := al.Stats()
		if st.CacheMisses != 1 || st.CacheRefills != 1 {
			t.Errorf("misses/refills = %d/%d, want 1/1", st.CacheMisses, st.CacheRefills)
		}
		if st.CachedChunks != 3 {
			t.Errorf("CachedChunks = %d, want 3 (batch 4 minus the user chunk)", st.CachedChunks)
		}
		if n := al.lf.nodes[0].buddy.Stats().Allocs; n != 1 {
			t.Errorf("buddy Allocs = %d, want 1 (one span carved)", n)
		}
		if st.ArenaLockAcqs != 0 || st.DepotLockAcqs != 0 {
			t.Errorf("lock acqs = %d arena / %d depot, want 0/0", st.ArenaLockAcqs, st.DepotLockAcqs)
		}
		if st.CASAttempts == 0 {
			t.Error("no CAS attempts recorded for a buddy-backed refill")
		}
		// Three cached hits, no further refill.
		for i := 0; i < 3; i++ {
			if _, err := al.Malloc(main, 100); err != nil {
				t.Errorf("Malloc hit %d: %v", i, err)
				return
			}
		}
		st = al.Stats()
		if st.CacheHits != 3 || st.CacheRefills != 1 {
			t.Errorf("hits/refills = %d/%d, want 3/1", st.CacheHits, st.CacheRefills)
		}
		if err := al.Free(main, p); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		// Detach returns every cached chunk; with the magazine and depot
		// drained the spans' last chunks come home and the blocks free.
		al.DetachThread(main)
		if err := al.Check(); err != nil {
			t.Errorf("Check after detach: %v", err)
		}
		st = al.Stats()
		if st.Heap.Mallocs != 4 || st.Heap.Frees != 1 {
			t.Errorf("user ops = %d mallocs / %d frees, want 4/1", st.Heap.Mallocs, st.Heap.Frees)
		}
		if st.ArenaLockAcqs != 0 {
			t.Errorf("ArenaLockAcqs = %d after detach, want 0 (no arena on the cacheable path)", st.ArenaLockAcqs)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeTorture churns 8 threads through mixed-size malloc/free with
// cross-thread handoffs on a 2-node machine — the -race run of the suite
// drives the engine's goroutine handoffs through every CAS path — and then
// verifies the structural invariants and the zero-lock property.
func TestLockFreeTorture(t *testing.T) {
	cfg := sim.Config{CPUs: 4, Nodes: 2, ClockMHz: 100, Seed: 11}
	cfg.Costs = sim.DefaultCosts()
	cfg.Costs.ThreadSpawn = 100
	cfg.Costs.SpawnJitter = 10
	m := sim.NewMachine(cfg)
	c := cache.NewModel(4, cache.DefaultCosts())
	as := vm.New(1, m, c)
	var al *ThreadCache
	err := m.Run(func(main *sim.Thread) {
		var err error
		al, err = newThreadCache(main, KindLockFree, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("newThreadCache: %v", err)
			return
		}
		// Mailboxes for cross-thread frees: workers drop every 4th chunk in
		// a neighbour's box and free what they find in their own.
		boxes := make([][]uint64, 8)
		var kids []*sim.Thread
		for i := 0; i < 8; i++ {
			i := i
			kids = append(kids, main.Spawn("w", func(w *sim.Thread) {
				al.AttachThread(w)
				var mine []uint64
				for op := 0; op < 1500; op++ {
					if len(mine) > 0 && (w.RNG().Intn(2) == 0 || len(mine) > 48) {
						k := w.RNG().Intn(len(mine))
						p := mine[k]
						mine[k] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if op%4 == 0 {
							boxes[(i+1)%8] = append(boxes[(i+1)%8], p)
						} else if err := al.Free(w, p); err != nil {
							t.Errorf("Free: %v", err)
							return
						}
					} else {
						p, err := al.Malloc(w, uint32(16+w.RNG().Intn(480)))
						if err != nil {
							t.Errorf("Malloc: %v", err)
							return
						}
						mine = append(mine, p)
					}
					if len(boxes[i]) > 0 {
						p := boxes[i][len(boxes[i])-1]
						boxes[i] = boxes[i][:len(boxes[i])-1]
						if err := al.Free(w, p); err != nil {
							t.Errorf("cross Free: %v", err)
							return
						}
					}
					w.MaybeYield()
				}
				for _, p := range mine {
					if err := al.Free(w, p); err != nil {
						t.Errorf("drain Free: %v", err)
						return
					}
				}
				al.DetachThread(w)
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
		// Leftover mailbox chunks freed by main.
		for i := range boxes {
			for _, p := range boxes[i] {
				if err := al.Free(main, p); err != nil {
					t.Errorf("mailbox Free: %v", err)
					return
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
	st := al.Stats()
	if st.Heap.Mallocs != st.Heap.Frees {
		t.Errorf("mallocs %d != frees %d after full drain", st.Heap.Mallocs, st.Heap.Frees)
	}
	if st.DepotLockAcqs != 0 {
		t.Errorf("DepotLockAcqs = %d, want 0 by construction", st.DepotLockAcqs)
	}
	if st.ArenaLockAcqs != 0 {
		t.Errorf("ArenaLockAcqs = %d, want 0 (cacheable sizes never touch an arena)", st.ArenaLockAcqs)
	}
	if st.CASAttempts == 0 || st.CASFails == 0 {
		t.Errorf("8 threads produced CAS attempts=%d fails=%d; expected contention", st.CASAttempts, st.CASFails)
	}
}

// TestLockFreeFreeIgnoresFakeHeaders pins the routing order in Free: buddy
// chunks carry no header, so the word below a chunk is a neighbour's user
// data. If Free sniffed the mmapped-chunk flag before the span lookup, a
// neighbour writing 0xFF bytes would fake the IsMmapped bit and send the
// chunk to a bogus (misaligned) munmap. Fill every chunk edge to edge, then
// free them all.
func TestLockFreeFreeIgnoresFakeHeaders(t *testing.T) {
	m, as := newWorld(1, 7)
	err := m.Run(func(main *sim.Thread) {
		al, err := newThreadCache(main, KindLockFree, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("newThreadCache: %v", err)
			return
		}
		al.AttachThread(main)
		var ps []uint64
		for i := 0; i < 24; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			for off := uint64(0); off < 64; off++ {
				as.Write8(main, p+off, 0xFF)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free with 0xFF neighbours: %v", err)
				return
			}
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		st := al.Stats()
		if st.Heap.MunmapChunks != 0 {
			t.Errorf("MunmapChunks = %d; small buddy chunks were misrouted to the mmap path", st.Heap.MunmapChunks)
		}
		al.DetachThread(main)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLockFreeScavengeDuringChurn forces scavenger passes while other
// threads churn the magazines and depot: the detach/re-attach snapshots must
// keep every class's count and list consistent (Check verifies the no-torn
// invariant after every forced pass).
func TestLockFreeScavengeDuringChurn(t *testing.T) {
	cfg := sim.Config{CPUs: 4, Nodes: 2, ClockMHz: 100, Seed: 5}
	cfg.Costs = sim.DefaultCosts()
	cfg.Costs.ThreadSpawn = 100
	cfg.Costs.SpawnJitter = 10
	m := sim.NewMachine(cfg)
	c := cache.NewModel(4, cache.DefaultCosts())
	as := vm.New(1, m, c)
	var al *ThreadCache
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.ScavengeInterval = 40000
		costs.ScavengeMinBinBytes = 16 << 10
		var err error
		al, err = newThreadCache(main, KindLockFree, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("newThreadCache: %v", err)
			return
		}
		var kids []*sim.Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, main.Spawn("churn", func(w *sim.Thread) {
				al.AttachThread(w)
				var live []uint64
				for op := 0; op < 2000; op++ {
					if len(live) > 0 && (w.RNG().Intn(2) == 0 || len(live) > 32) {
						k := w.RNG().Intn(len(live))
						p := live[k]
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
						if err := al.Free(w, p); err != nil {
							t.Errorf("Free: %v", err)
							return
						}
					} else {
						p, err := al.Malloc(w, uint32(24+w.RNG().Intn(200)))
						if err != nil {
							t.Errorf("Malloc: %v", err)
							return
						}
						live = append(live, p)
					}
					w.MaybeYield()
				}
				for _, p := range live {
					if err := al.Free(w, p); err != nil {
						t.Errorf("drain Free: %v", err)
						return
					}
				}
				al.DetachThread(w)
			}))
		}
		forcer := main.Spawn("forcer", func(w *sim.Thread) {
			for i := 0; i < 40; i++ {
				w.Sleep(25000)
				al.Scavenger().Force(w)
				if err := al.Check(); err != nil {
					t.Errorf("Check after forced pass %d: %v", i, err)
					return
				}
			}
		})
		for _, k := range kids {
			main.Join(k)
		}
		main.Join(forcer)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
	st := al.Stats()
	if st.ScavengeEpochs == 0 {
		t.Error("no scavenge passes ran")
	}
	if st.DepotLockAcqs != 0 {
		t.Errorf("DepotLockAcqs = %d, want 0", st.DepotLockAcqs)
	}
}
