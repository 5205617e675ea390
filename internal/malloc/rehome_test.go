package malloc

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// TestCacheRehomeAfterMigration is the regression test for magazine
// re-homing (the lock-free kinds' policy): a worker fills its magazine on one node, sleeps,
// and is forced awake on the other node — its old CPU (and that whole node)
// is kept busy past its wake time by hog threads, while the other node's
// CPUs are left idle, so the scheduler's earliest-free pick migrates it. The
// first operation after the migration must release the now-remote chunks
// home and re-pick a home arena on the new node's shard.
//
// The hogs steer themselves: each spins until a deadline chosen by the node
// it is running on (long past the wake on the worker's node, well before it
// elsewhere), so the test does not depend on which CPU the scheduler hands
// to whom.
func TestCacheRehomeAfterMigration(t *testing.T) {
	cfg := sim.Config{CPUs: 4, Nodes: 2, ClockMHz: 100, Seed: 9}
	cfg.Costs = sim.DefaultCosts()
	cfg.Costs.ThreadSpawn = 100
	cfg.Costs.SpawnJitter = 10
	m := sim.NewMachine(cfg)
	c := cache.NewModel(4, 5, cache.DefaultCosts())
	as := vm.New(1, m, c)

	const sleep = 4_000_000
	// Shared scenario state: written by the worker, polled by the hogs. The
	// engine resumes one goroutine at a time, so plain variables are safe.
	var (
		wake sim.Time = 1 << 62
		n0            = -1
		n1            = -1
	)
	var al *ThreadCache
	err := m.Run(func(main *sim.Thread) {
		var err error
		al, err = NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.rehome = true // the lock-free kinds' policy, on the mutex machine
		worker := main.Spawn("worker", func(w *sim.Thread) {
			al.AttachThread(w)
			var ps []uint64
			for i := 0; i < 32; i++ {
				p, err := al.Malloc(w, 128)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				ps = append(ps, p)
			}
			// Park 16 chunks in the magazine; they are owned by the starting
			// node's shard.
			for _, p := range ps[16:] {
				if err := al.Free(w, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
			n0 = w.Node()
			wake = w.Now() + sleep
			w.Sleep(sleep)
			n1 = w.Node()
			if n1 == n0 {
				return // asserted fatal below, with the full picture
			}
			// First post-migration operation: cacheOf must re-home.
			p, err := al.Malloc(w, 128)
			if err != nil {
				t.Errorf("post-migration Malloc: %v", err)
				return
			}
			st := al.Stats()
			if st.CacheRehomes != 1 {
				t.Errorf("CacheRehomes = %d, want 1", st.CacheRehomes)
			}
			if st.RehomedChunks != 16 {
				t.Errorf("RehomedChunks = %d, want the 16 parked chunks", st.RehomedChunks)
			}
			if home := al.caches.get(w.ID()).home; home == nil || al.nodeOfArena(home) != n1 {
				t.Errorf("post-migration home arena not on node %d", n1)
			}
			if err := al.Check(); err != nil {
				t.Errorf("Check after rehome: %v", err)
			}
			if err := al.Free(w, p); err != nil {
				t.Errorf("Free: %v", err)
			}
			for _, q := range ps[:16] {
				if err := al.Free(w, q); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
			al.DetachThread(w)
		})
		var hogs []*sim.Thread
		for i := 0; i < 4; i++ {
			hogs = append(hogs, main.Spawn("hog", func(h *sim.Thread) {
				for {
					end := wake - 500_000 // idle well before the wake...
					if h.Node() == n0 {
						end = wake + 1_000_000 // ...except on the worker's node
					}
					if n0 >= 0 && h.Now() >= end {
						return
					}
					h.Charge(2_000)
					h.MaybeYield()
				}
			}))
		}
		main.Join(worker)
		for _, h := range hogs {
			main.Join(h)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n1 == n0 {
		t.Fatalf("worker woke on its old node %d; the migration scenario needs re-tuning", n0)
	}
	if err := al.Check(); err != nil {
		t.Fatal(err)
	}
}
