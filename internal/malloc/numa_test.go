package malloc

import (
	"fmt"
	"reflect"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

// newNUMAWorld builds a multi-node machine (2.0x remote multiplier) and an
// address space on it.
func newNUMAWorld(cpus, nodes int, seed uint64) (*sim.Machine, *vm.AddressSpace) {
	costs := sim.DefaultCosts()
	costs.RemoteAccess = 2.0
	m := sim.NewMachine(sim.Config{CPUs: cpus, Nodes: nodes, ClockMHz: 100, Costs: costs, Seed: seed})
	c := cache.NewModel(cpus, cache.DefaultCosts())
	return m, vm.New(1, m, c)
}

// settle runs a few large charge/yield rounds so concurrently-spawned
// workers claim distinct CPUs before the test's real work begins.
func settle(t *sim.Thread) {
	for i := 0; i < 6; i++ {
		t.Charge(100000)
		t.Yield()
	}
}

// TestShardedPoolRoutesHomeArenas: on a 2-node machine every thread's home
// arena lives on the thread's own node, and the pool arenas' mappings are
// bound there; with NUMANodeBlind the pool stays flat and unbound.
func TestShardedPoolRoutesHomeArenas(t *testing.T) {
	for _, blind := range []bool{false, true} {
		m, as := newNUMAWorld(4, 2, 17)
		err := m.Run(func(main *sim.Thread) {
			costs := DefaultCostParams()
			costs.NUMANodeBlind = blind
			costs.DepotCapBytes = -1 // a depot hit would serve a miss without assigning a home arena
			al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
			if err != nil {
				t.Errorf("NewThreadCache: %v", err)
				return
			}
			if blind && al.sharded() {
				t.Error("NUMANodeBlind still built a sharded pool")
			}
			if !blind && !al.sharded() {
				t.Error("2-node machine did not shard the pool")
			}
			var ws []*sim.Thread
			for i := 0; i < 3; i++ {
				ws = append(ws, main.Spawn(fmt.Sprintf("w%d", i), func(w *sim.Thread) {
					al.AttachThread(w)
					defer al.DetachThread(w)
					settle(w)
					p, err := al.Malloc(w, 64)
					if err != nil {
						t.Errorf("Malloc: %v", err)
						return
					}
					home := al.caches.get(w.ID()).home
					if blind {
						if home.Node != -1 && !home.IsMain {
							t.Errorf("node-blind pool arena bound to node %d", home.Node)
						}
					} else if !home.IsMain && home.Node != w.Node() {
						t.Errorf("thread on node %d got home arena on node %d", w.Node(), home.Node)
					}
					if err := al.Free(w, p); err != nil {
						t.Errorf("Free: %v", err)
					}
				}))
			}
			for _, w := range ws {
				main.Join(w)
			}
			if err := al.Check(); err != nil {
				t.Errorf("Check: %v", err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteFreeRoutesToOwnerDepot is the cross-node free-routing contract:
// a thread on one node freeing chunks owned by another node's arena must
// not park them in its magazine — they are buffered, counted as RemoteFrees
// and donated in spans to the owning node's depot, where they remain until
// that node's threads (or the scavenger) drain them. Conservation holds
// down to the arena malloc==free balance after a forced scavenge drain.
func TestRemoteFreeRoutesToOwnerDepot(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 23)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.CacheAdaptive = -1
		costs.ScavengeInterval = 10_000_000 // long epochs: only forced passes run
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.batch, al.highWater = 4, 8
		const n = 8
		var chunks []uint64
		var prodNode, consNode int
		var ownerArena *heap.Arena

		// Main claims shard 0's first slot (the unbound main arena) so the
		// producer below gets a node-bound pool arena whichever node it
		// lands on; chunks of unbound arenas are deliberately not routed.
		al.AttachThread(main)
		mainChunk, err := al.Malloc(main, 64)
		if err != nil {
			t.Errorf("main Malloc: %v", err)
			return
		}

		producer := main.Spawn("producer", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w)
			settle(w)
			for i := 0; i < n; i++ {
				p, err := al.Malloc(w, 64)
				if err != nil {
					t.Errorf("producer Malloc: %v", err)
					return
				}
				chunks = append(chunks, p)
			}
			prodNode = w.Node()
			ownerArena = al.caches.get(w.ID()).home
		})
		main.Join(producer)
		if ownerArena == nil || ownerArena.Node != prodNode {
			t.Fatalf("producer home arena node %v, want its own node %d", ownerArena, prodNode)
		}

		consumer := main.Spawn("consumer", func(w *sim.Thread) {
			al.AttachThread(w)
			settle(w)
			consNode = w.Node()
			if consNode == prodNode {
				t.Errorf("consumer landed on producer's node %d; cannot exercise remote frees", consNode)
				return
			}
			for _, p := range chunks {
				if err := al.Free(w, p); err != nil {
					t.Errorf("consumer Free: %v", err)
					return
				}
			}
			// All n frees were remote, and full spans were donated to the
			// OWNER's depot, not the consumer's.
			st := al.Stats()
			if st.RemoteFrees != n {
				t.Errorf("RemoteFrees = %d, want %d", st.RemoteFrees, n)
			}
			if st.RemoteBytes == 0 {
				t.Error("RemoteBytes = 0")
			}
			owner := al.depots[prodNode]
			found := 0
			for _, k := range owner.classes.keys() {
				for _, span := range owner.classes.get(k).spans {
					for _, e := range span {
						if e.arena != ownerArena {
							t.Errorf("owner depot span holds chunk of arena %d (node %d)", e.arena.Index, e.arena.Node)
						}
						found++
					}
				}
			}
			if found != n {
				t.Errorf("owner depot holds %d routed chunks, want %d", found, n)
			}
			if mine := al.depots[consNode]; mine.chunkCount() != 0 {
				t.Errorf("consumer's own depot holds %d chunks, want 0", mine.chunkCount())
			}
			if err := al.Check(); err != nil {
				t.Errorf("Check after routing: %v", err)
			}
			al.DetachThread(w)
		})
		main.Join(consumer)
		if err := al.Free(main, mainChunk); err != nil {
			t.Errorf("main Free: %v", err)
			return
		}
		al.DetachThread(main)

		// Scavenge everything dry: the routed chunks must flow back into the
		// owning arenas and balance the books.
		for i := 0; i < 20 && al.ParkedBytes() > 0; i++ {
			main.Charge(20_000_000)
			al.Scavenger().Force(main)
		}
		if got := al.ParkedBytes(); got != 0 {
			t.Fatalf("tiers still park %d bytes after full decay", got)
		}
		var am, af uint64
		for _, a := range al.Arenas() {
			am += a.Stats().Mallocs
			af += a.Stats().Frees
		}
		if am != af {
			t.Errorf("arena mallocs %d != frees %d after drain", am, af)
		}
		if err := al.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTwoNodeChurnTortureWithScavenge extends the churn-torture property
// test to a 2-node topology: two workers on different nodes churn a shared
// mailbox (so cross-node frees happen constantly) while the full five-stage
// scavenger cascade races them with forced passes. Stamps must survive,
// RemoteFrees must have fired, and after draining every tier conservation
// must hold to the arena malloc==free balance.
func TestTwoNodeChurnTortureWithScavenge(t *testing.T) {
	m, as := newNUMAWorld(4, 2, 167)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.CacheAdaptive = -1
		costs.ScavengeInterval = 50000
		costs.ScavengeDecay = 50
		costs.ScavengeMinBinBytes = 4096 // all five cascade stages race the churn
		costs.ScavengeBinPad = -1
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.batch, al.highWater, al.trimPad = 4, 8, 8*1024
		type obj struct {
			p     uint64
			n     uint32
			stamp byte
		}
		var shared []obj
		var checkErr error
		nodes := make([]int, 2)
		var ws []*sim.Thread
		for i := 0; i < 2; i++ {
			i := i
			ws = append(ws, main.Spawn(fmt.Sprintf("churn-%d", i), func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				settle(w)
				nodes[i] = w.Node()
				r := xrand.New(167, uint64(i+1))
				var local []obj
				for j := 0; j < 400 && checkErr == nil; j++ {
					switch {
					case len(local) > 0 && r.Intn(3) == 0:
						k := r.Intn(len(local))
						o := local[k]
						if as.Read8(w, o.p) != o.stamp || as.Read8(w, o.p+uint64(o.n)-1) != o.stamp {
							checkErr = fmt.Errorf("stamp corrupted at 0x%x size %d", o.p, o.n)
							return
						}
						if err := al.Free(w, o.p); err != nil {
							checkErr = err
							return
						}
						local = append(local[:k], local[k+1:]...)
					case len(shared) > 0 && r.Intn(2) == 0:
						o := shared[len(shared)-1]
						shared = shared[:len(shared)-1]
						if as.Read8(w, o.p) != o.stamp {
							checkErr = fmt.Errorf("shared stamp corrupted at 0x%x", o.p)
							return
						}
						if err := al.Free(w, o.p); err != nil {
							checkErr = err
							return
						}
					default:
						n := uint32(1 + r.Intn(20000))
						p, err := al.Malloc(w, n)
						if err != nil {
							checkErr = err
							return
						}
						stamp := byte(1 + r.Intn(255))
						as.Write8(w, p, stamp)
						as.Write8(w, p+uint64(n)-1, stamp)
						if r.Intn(2) == 0 {
							local = append(local, obj{p, n, stamp})
						} else {
							shared = append(shared, obj{p, n, stamp})
						}
					}
					if j%16 == 0 {
						w.Charge(60000)
						al.Scavenger().Force(w)
					}
					if j%100 == 0 {
						if err := al.Check(); err != nil {
							checkErr = err
							return
						}
					}
				}
				for _, o := range local {
					if err := al.Free(w, o.p); err != nil {
						checkErr = err
						return
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		if checkErr != nil {
			t.Error(checkErr)
			return
		}
		if nodes[0] == nodes[1] {
			t.Fatalf("both churn workers on node %d; the torture never crossed nodes", nodes[0])
		}
		for _, o := range shared {
			if err := al.Free(main, o.p); err != nil {
				t.Errorf("drain Free: %v", err)
				return
			}
		}
		for i := 0; i < 40 && al.ParkedBytes() > 0; i++ {
			main.Charge(60000)
			al.Scavenger().Force(main)
		}
		if got := al.ParkedBytes(); got != 0 {
			t.Fatalf("tiers still park %d bytes after full decay", got)
		}
		st := al.Stats()
		if st.RemoteFrees == 0 {
			t.Error("two-node churn produced no remote frees; routing was never exercised")
		}
		var am, af uint64
		for _, a := range al.Arenas() {
			am += a.Stats().Mallocs
			af += a.Stats().Frees
		}
		if am != af {
			t.Errorf("arena mallocs %d != frees %d after full decay", am, af)
		}
		if err := al.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardFallsBackToAnyArena pins arenaBatch's last resort on a sharded
// pool: a node-1 thread fills its home arena to heap's 1 MB sub-arena budget
// with requests too large to cache, and a commit limit then refuses its
// shard a fresh arena, so the request is served by an arena of another
// shard (the main arena, whose brk still fits it) rather than failing.
func TestShardFallsBackToAnyArena(t *testing.T) {
	const size = 40 * 1024 // above cacheMax: every malloc goes to the home arena
	m, as := newNUMAWorld(2, 2, 53)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		w := main.Spawn("node1", func(w *sim.Thread) {
			w.Pin(1)
			w.Yield()
			if w.Node() != 1 {
				t.Errorf("worker runs on node %d, want 1", w.Node())
				return
			}
			// Room for the home arena's whole 1 MB budget plus the main
			// arena's sbrk growth for one request, but not for another
			// sub-arena's first 128 KB mapping.
			as.SetMemLimit(as.Stats().CommittedBytes + 1<<20 + 64<<10)
			var home *heap.Arena
			inHome := 0
			for {
				mem, err := al.Malloc(w, size)
				if err != nil {
					t.Errorf("malloc %d: %v", inHome+1, err)
					return
				}
				if home == nil {
					home = al.caches.get(w.ID()).home
					if home == nil || home.Node != 1 {
						t.Errorf("home arena %v is not bound to node 1", home)
						return
					}
				}
				if !home.Contains(mem - heap.HeaderSz) {
					if !al.arenas[0].Contains(mem - heap.HeaderSz) {
						t.Errorf("fallback chunk 0x%x not in the main arena", mem)
					}
					break
				}
				if inHome++; inHome > 30 {
					t.Errorf("home arena still serving after %d chunks of 40 KB", inHome)
					return
				}
			}
			if inHome < 20 {
				t.Errorf("home arena served only %d chunks before the fallback", inHome)
			}
		})
		main.Join(w)
		if got := al.Stats().ArenaCreations; got != 1 {
			t.Errorf("ArenaCreations = %d, want 1 (the home arena; its shard's growth was refused)", got)
		}
		if as.Stats().CommitFails == 0 {
			t.Error("the commit limit refused nothing")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSumStatsDropsNoHeapField is the end-to-end no-silent-drop test for
// the allocator-level aggregation: after real traffic, every field of
// Stats().Heap must equal the reflection-computed sum over the arenas
// (ptmalloc reports raw arena counters, so the comparison is exact).
func TestSumStatsDropsNoHeapField(t *testing.T) {
	m, as := newWorld(2, 31)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewPTMalloc(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewPTMalloc: %v", err)
			return
		}
		r := xrand.New(31, 1)
		var live []uint64
		for i := 0; i < 300; i++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				k := r.Intn(len(live))
				if err := al.Free(main, live[k]); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				p, err := al.Malloc(main, uint32(1+r.Intn(5000)))
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				live = append(live, p)
			}
		}
		var want heap.Stats
		for _, a := range al.Arenas() {
			want.Add(a.Stats())
		}
		got := al.Stats().Heap
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if gv.Field(i).Uint() != wv.Field(i).Uint() {
				t.Errorf("Stats().Heap.%s = %d, want %d (field dropped from the Stats aggregate?)",
					gv.Type().Field(i).Name, gv.Field(i).Uint(), wv.Field(i).Uint())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsCopiesNoVMCounter: every number has one home. The remote-access
// counters live in the address space's Stats, where a cross-node probe moves
// them, and no allocator Stats field shares a name with a vm.Stats field —
// a copy would be a second home that can drift from the first.
func TestStatsCopiesNoVMCounter(t *testing.T) {
	vmFields := make(map[string]bool)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(vm.Stats{})) {
		vmFields[f.Name] = true
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Stats{})) {
		if vmFields[f.Name] {
			t.Errorf("Stats.%s copies vm.Stats.%s: read it from AddressSpace().Stats()", f.Name, f.Name)
		}
	}
	m, as := newNUMAWorld(2, 2, 41)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewThreadCache(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		al.AttachThread(main)
		defer al.DetachThread(main)
		// Touch memory bound to the other node so remote counters move.
		other := 1 - main.Node()
		addr, err := as.MmapOnNode(main, vm.PageSize, "probe", other)
		if err != nil {
			t.Errorf("MmapOnNode: %v", err)
			return
		}
		as.Write8(main, addr, 1)
		if vs := as.Stats(); vs.RemoteAccesses == 0 {
			t.Fatal("probe produced no remote accesses")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
