package malloc

import (
	"fmt"
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// scavCosts returns thread-cache costs with the scavenger on at the given
// epoch interval and deterministic fixed marks; narrowScav sets the rest of
// the test geometry on the allocator built from them.
func scavCosts(interval int64, decay int) CostParams {
	costs := DefaultCostParams()
	costs.CacheAdaptive = -1
	costs.ScavengeInterval = interval
	costs.ScavengeDecay = decay
	return costs
}

// narrowScav gives a thread cache built from scavCosts 4-chunk refills, a
// fixed mark of 8 and an 8 KB trim pad, before its first operation.
func narrowScav(al *ThreadCache) {
	al.batch, al.highWater, al.trimPad = 4, 8, 8*1024
}

// TestScavengerDecaysIdleMagazines: a thread's parked magazine decays once
// the thread stops allocating — flushed into the arenas, then trimmed out to
// the kernel — while the structural invariants keep holding.
func TestScavengerDecaysIdleMagazines(t *testing.T) {
	m, as := newWorld(2, 113)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 50)
		costs.DepotCapBytes = -1 // isolate the magazine path
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		var ps []uint64
		for i := 0; i < 8; i++ {
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
		if st.CachedChunks != 8 {
			t.Fatalf("cached chunks=%d, want 8 parked", st.CachedChunks)
		}
		arenaFrees := al.Arenas()[0].Stats().Frees

		// One epoch of idleness, then a pass: half the magazine decays.
		main.Charge(200000)
		al.Scavenger().Force(main)
		st = al.Stats()
		if st.CachedChunks != 4 {
			t.Errorf("cached chunks=%d after one 50%% pass, want 4", st.CachedChunks)
		}
		if st.ScavengeMagChunks != 4 {
			t.Errorf("ScavengeMagChunks=%d, want 4", st.ScavengeMagChunks)
		}
		if got := al.Arenas()[0].Stats().Frees; got != arenaFrees+4 {
			t.Errorf("arena frees=%d, want %d (scavenged chunks freed for real)", got, arenaFrees+4)
		}
		if st.ScavengeEpochs != 1 || st.ScavengeBytes == 0 {
			t.Errorf("epochs=%d bytes=%d, want 1/nonzero", st.ScavengeEpochs, st.ScavengeBytes)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}

		// Repeated idle passes drain the magazine completely (the fractional
		// remainder carries across epochs, so even a 1-entry class decays).
		for i := 0; i < 6; i++ {
			main.Charge(200000)
			al.Scavenger().Force(main)
		}
		st = al.Stats()
		if st.CachedChunks != 0 {
			t.Errorf("cached chunks=%d after repeated idle passes, want 0", st.CachedChunks)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after drain: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerSparesActiveMagazines: a cache whose owner keeps allocating
// is never decayed, so the hit path stays hot.
func TestScavengerSparesActiveMagazines(t *testing.T) {
	m, as := newWorld(2, 127)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 100)
		costs.DepotCapBytes = -1
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		// Pair traffic keeps lastOp fresh across epoch boundaries; the
		// inline Tick runs passes as time crosses each boundary.
		for i := 0; i < 2000; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			main.Charge(500)
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		st := al.Stats()
		if st.ScavengeEpochs == 0 {
			t.Fatal("inline ticks never ran a pass over 1M busy cycles")
		}
		if st.ScavengeMagChunks != 0 {
			t.Errorf("scavenger stole %d chunks from a busy thread's magazine", st.ScavengeMagChunks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerReturnsColdDepotSpans: spans parked in the depot by a dead
// thread decay back to the arenas once the class goes cold.
func TestScavengerReturnsColdDepotSpans(t *testing.T) {
	m, as := newWorld(2, 131)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 100)
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		w := main.Spawn("producer", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w) // donates the magazine to the depot
			var ps []uint64
			for i := 0; i < 16; i++ {
				p, err := al.Malloc(w, 64)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				if err := al.Free(w, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
		})
		main.Join(w)
		st := al.Stats()
		if st.DepotChunks == 0 {
			t.Fatal("detach parked nothing in the depot")
		}
		main.Charge(200000)
		al.Scavenger().Force(main)
		st = al.Stats()
		if st.DepotChunks != 0 {
			t.Errorf("depot chunks=%d after a cold 100%% pass, want 0", st.DepotChunks)
		}
		if st.ScavengeDepotSpans == 0 || st.ScavengeDepotChunks == 0 {
			t.Errorf("depot scavenge counters %d spans / %d chunks, want nonzero",
				st.ScavengeDepotSpans, st.ScavengeDepotChunks)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerExpiresReuseRegionsAndTrims: the vm reuse cache sheds parked
// regions by age, and the trim source hands the arena-top tail back — the
// residency counters must show memory actually leaving the process.
func TestScavengerExpiresReuseRegionsAndTrims(t *testing.T) {
	m, as := newWorld(2, 137)
	err := m.Run(func(main *sim.Thread) {
		// A long epoch: the setup below burns ~100K cycles faulting pages
		// in, and no inline tick may fire before the parked state is built.
		costs := scavCosts(10_000_000, 100)
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		// Park an above-threshold region with its pages faulted in.
		const sz = 256 * 1024
		p, err := al.Malloc(main, sz)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		for off := uint64(0); off < sz; off += 4096 {
			as.Write8(main, p+off, 0xAB)
		}
		if err := al.Free(main, p); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		// Dirty and drain a stretch of small chunks so the arena has a fat
		// free top to trim.
		var ps []uint64
		for i := 0; i < 100; i++ {
			q, err := al.Malloc(main, 2000)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			as.Write8(main, q, 1)
			as.Write8(main, q+1999, 1)
			ps = append(ps, q)
		}
		for _, q := range ps {
			if err := al.Free(main, q); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		before := as.Stats()
		if before.MmapReuseParked == 0 {
			t.Fatal("nothing parked in the reuse cache")
		}
		main.Charge(20_000_000)
		al.Scavenger().Force(main)
		// A second idle pass: the first flushed magazines/depot into the
		// arenas; this one trims the now-coalesced top.
		main.Charge(20_000_000)
		al.Scavenger().Force(main)
		st := al.Stats()
		vs := as.Stats()
		if vs.MmapReuseParked != 0 || vs.MmapReuseExpired == 0 {
			t.Errorf("reuse cache not aged out: parked=%d expired=%d", vs.MmapReuseParked, vs.MmapReuseExpired)
		}
		if st.ScavengeReuseBytes == 0 {
			t.Error("ScavengeReuseBytes = 0")
		}
		if st.ScavengeTrimBytes == 0 || st.PagesReleased == 0 {
			t.Errorf("trim released %d bytes / %d pages, want nonzero", st.ScavengeTrimBytes, st.PagesReleased)
		}
		if vs.PagesPresent >= before.PagesPresent {
			t.Errorf("residency did not drop: %d -> %d pages", before.PagesPresent, vs.PagesPresent)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDetachAndFlushRaceScavengerEpochs is the reclamation torture test:
// worker threads churn several size classes (driving flushClass donations)
// and detach — donating whole magazines — while a background scavenger
// thread runs decay passes on a short epoch, interleaved by the engine with
// every allocator operation. No chunk may be lost or double-parked: the
// structural checker must stay clean throughout, and once the workers, the
// drain and a final set of decay passes are done, every arena-level malloc
// must have a matching arena-level free.
func TestDetachAndFlushRaceScavengerEpochs(t *testing.T) {
	m, as := newWorld(4, 139)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(20000, 50) // short epochs: many passes mid-churn
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		stop := false
		bg := main.Spawn("scavenger", func(w *sim.Thread) {
			al.Scavenger().Background(w, func() bool { return stop })
		})
		var mailbox []uint64
		var checkErr error
		var ws []*sim.Thread
		for i := 0; i < 4; i++ {
			ws = append(ws, main.Spawn(fmt.Sprintf("w%d", i), func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				r := xrand.New(139, uint64(w.ID()))
				var local []uint64
				for j := 0; j < 1200 && checkErr == nil; j++ {
					switch {
					case len(local) > 0 && r.Intn(3) == 0:
						k := r.Intn(len(local))
						if err := al.Free(w, local[k]); err != nil {
							checkErr = err
							return
						}
						local = append(local[:k], local[k+1:]...)
					case len(mailbox) > 0 && r.Intn(4) == 0:
						p := mailbox[len(mailbox)-1]
						mailbox = mailbox[:len(mailbox)-1]
						if err := al.Free(w, p); err != nil {
							checkErr = err
							return
						}
					default:
						sz := []uint32{24, 64, 200, 1024}[r.Intn(4)]
						p, err := al.Malloc(w, sz)
						if err != nil {
							checkErr = err
							return
						}
						if r.Intn(2) == 0 {
							local = append(local, p)
						} else {
							mailbox = append(mailbox, p)
						}
					}
					if j%200 == 0 {
						if err := al.Check(); err != nil {
							checkErr = fmt.Errorf("mid-churn: %w", err)
							return
						}
					}
				}
				for _, p := range local {
					if err := al.Free(w, p); err != nil {
						checkErr = err
						return
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		stop = true
		main.Join(bg)
		if checkErr != nil {
			t.Error(checkErr)
			return
		}
		for _, p := range mailbox {
			if err := al.Free(main, p); err != nil {
				t.Errorf("drain Free: %v", err)
				return
			}
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after churn: %v", err)
			return
		}
		st := al.Stats()
		if st.ScavengeEpochs == 0 {
			t.Fatal("the background scavenger never ran a pass")
		}
		if st.Heap.Mallocs != st.Heap.Frees {
			t.Errorf("user mallocs %d != frees %d", st.Heap.Mallocs, st.Heap.Frees)
		}
		// Decay every tier to empty: with all user chunks freed and all
		// parked chunks scavenged into the arenas, the arena-level books
		// must balance exactly — any imbalance means a lost or double-freed
		// chunk somewhere in the detach/flush/scavenge interleaving.
		for i := 0; i < 30 && al.ParkedBytes() > 0; i++ {
			main.Charge(40000)
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
			t.Errorf("arena mallocs %d != arena frees %d after full decay", am, af)
		}
		if err := al.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerSmallMagazineDecayRate pins the effective decay rate for
// magazines too small for the percentage to divide evenly: a 4-entry class
// at ScavengeDecay=1 must lose one chunk every 25 epochs (1%/epoch), not one
// per epoch (the old rounded-up minimum made it 25%/epoch, and drained a
// 1-entry class 100%/epoch regardless of the configured rate).
func TestScavengerSmallMagazineDecayRate(t *testing.T) {
	m, as := newWorld(2, 151)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 1)
		costs.DepotCapBytes = -1
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		var ps []uint64
		for i := 0; i < 4; i++ {
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
		if st := al.Stats(); st.CachedChunks != 4 {
			t.Fatalf("cached chunks=%d, want 4 parked", st.CachedChunks)
		}
		// 24 idle passes at 1%: the share keeps rounding to zero, so the
		// class must not shed a single chunk yet.
		for i := 0; i < 24; i++ {
			main.Charge(200000)
			al.Scavenger().Force(main)
		}
		if st := al.Stats(); st.CachedChunks != 4 {
			t.Errorf("cached chunks=%d after 24 passes at 1%%, want 4 (decay ran %.0fx too fast)",
				st.CachedChunks, float64(4-st.CachedChunks)*100/float64(4*24))
		}
		// Pass 25 accumulates a whole chunk's worth of decay.
		main.Charge(200000)
		al.Scavenger().Force(main)
		st := al.Stats()
		if st.CachedChunks != 3 || st.ScavengeMagChunks != 1 {
			t.Errorf("cached=%d scavenged=%d after 25 passes at 1%%, want 3/1", st.CachedChunks, st.ScavengeMagChunks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerSingleEntryClassHalfDecay: a 1-entry class at 50% decay takes
// two epochs to drain, matching the configured rate.
func TestScavengerSingleEntryClassHalfDecay(t *testing.T) {
	m, as := newWorld(2, 153)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 50)
		costs.DepotCapBytes = -1
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		// Drain the refill batch (CacheBatch=4) so exactly one entry parks.
		var ps []uint64
		for i := 0; i < 4; i++ {
			p, err := al.Malloc(main, 64)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		if err := al.Free(main, ps[0]); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		if st := al.Stats(); st.CachedChunks != 1 {
			t.Fatalf("cached chunks=%d, want exactly 1 parked", st.CachedChunks)
		}
		main.Charge(200000)
		al.Scavenger().Force(main)
		if st := al.Stats(); st.CachedChunks != 1 {
			t.Errorf("cached chunks=%d after one 50%% pass on a 1-entry class, want 1 (half a chunk carries over)", st.CachedChunks)
		}
		main.Charge(200000)
		al.Scavenger().Force(main)
		if st := al.Stats(); st.CachedChunks != 0 {
			t.Errorf("cached chunks=%d after two 50%% passes, want 0", st.CachedChunks)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerSmallDepotDecayRate: the depot carries the same fractional
// remainder as the magazines, so a one-span class at 50% decay survives the
// first cold pass and drains on the second instead of vanishing 100%/epoch.
func TestScavengerSmallDepotDecayRate(t *testing.T) {
	m, as := newWorld(2, 155)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 50)
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		// A dying producer donates exactly one 4-chunk span to the depot.
		w := main.Spawn("producer", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w)
			var ps []uint64
			for i := 0; i < 4; i++ {
				p, err := al.Malloc(w, 64)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				if err := al.Free(w, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
		})
		main.Join(w)
		if st := al.Stats(); st.DepotChunks != 4 {
			t.Fatalf("depot chunks=%d, want one 4-chunk span parked", st.DepotChunks)
		}
		main.Charge(200000)
		al.Scavenger().Force(main)
		if st := al.Stats(); st.DepotChunks != 4 {
			t.Errorf("depot chunks=%d after one 50%% pass on a 1-span class, want 4 (half a span carries over)", st.DepotChunks)
		}
		main.Charge(200000)
		al.Scavenger().Force(main)
		if st := al.Stats(); st.DepotChunks != 0 {
			t.Errorf("depot chunks=%d after two 50%% passes, want 0", st.DepotChunks)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerTrimSkipsBusyArenas: the trim source must leave an arena
// alone while its threads are mid-burst (trimming would only force refaults
// onto the very next carve-out) and still trim the idle arena next door.
func TestScavengerTrimSkipsBusyArenas(t *testing.T) {
	m, as := newWorld(2, 157)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(50000, 50)
		costs.DepotCapBytes = -1
		params := heap.DefaultParams()
		params.Trim = false // isolate the scavenger's trim from free-time sbrk trimming
		al, err := NewThreadCache(main, as, params, costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		al.AttachThread(main)
		// Main (home: arena 0) builds a fat resident free top, then goes idle.
		const big = 40000 // above CacheMax: straight to the arena, no magazine
		var ps []uint64
		for i := 0; i < 8; i++ {
			p, err := al.Malloc(main, big)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			for off := uint64(0); off < big; off += 4096 {
				as.Write8(main, p+off, 1)
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(main, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		// A worker (home: arena 1) churns through many epochs; the inline
		// ticks run scavenge passes while its arena stays hot.
		w := main.Spawn("busy", func(w *sim.Thread) {
			al.AttachThread(w)
			defer al.DetachThread(w)
			for i := 0; i < 40; i++ {
				p, err := al.Malloc(w, big)
				if err != nil {
					t.Errorf("worker Malloc: %v", err)
					return
				}
				for off := uint64(0); off < big; off += 4096 {
					as.Write8(w, p+off, 2)
				}
				if err := al.Free(w, p); err != nil {
					t.Errorf("worker Free: %v", err)
					return
				}
			}
		})
		main.Join(w)
		arenas := al.Arenas()
		if len(arenas) < 2 {
			t.Fatalf("expected a second pool arena, have %d", len(arenas))
		}
		if st := al.Stats(); st.ScavengeEpochs == 0 {
			t.Fatal("no scavenge pass ran during the worker burst")
		}
		if got := arenas[1].Stats().TopReleases; got != 0 {
			t.Errorf("busy arena saw %d TopReleases mid-burst, want 0", got)
		}
		if got := arenas[0].Stats().TopReleases; got == 0 {
			t.Error("idle arena was never trimmed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScavengerReleasesBinnedChunks: with ScavengeMinBinBytes on, a free
// chunk pinned away from the top chunk — exactly what TrimTop can never
// reach — has its interior pages handed back after an idle epoch, and the
// next burst that re-carves it pays refaults.
func TestScavengerReleasesBinnedChunks(t *testing.T) {
	m, as := newWorld(2, 163)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(100000, 100)
		costs.DepotCapBytes = -1
		costs.ScavengeMinBinBytes = 4096
		costs.ScavengeBinPad = -1 // no resident pad: one idle chunk must release
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		const big = 40000
		A, err := al.Malloc(main, big)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		for off := uint64(0); off < big; off += 4096 {
			as.Write8(main, A+off, 0xAB)
		}
		pin, err := al.Malloc(main, 64)
		if err != nil {
			t.Errorf("Malloc pin: %v", err)
			return
		}
		if err := al.Free(main, A); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
		// Note: the pin keeps A out of the top chunk, so without the binned
		// stage this memory would stay resident forever. Two passes: the
		// first flushes the pin's magazine batch into the arena (stamping it
		// active); the second finds the arena idle and releases A's interior.
		main.Charge(200000)
		al.Scavenger().Force(main)
		main.Charge(200000)
		al.Scavenger().Force(main)
		st := al.Stats()
		if st.Heap.BinReleases == 0 || st.ScavengeBinBytes == 0 {
			t.Fatalf("binned release never fired: BinReleases=%d ScavengeBinBytes=%d",
				st.Heap.BinReleases, st.ScavengeBinBytes)
		}
		if st.Heap.BinBytesReleased != st.ScavengeBinBytes {
			t.Errorf("heap released %d bytes, scavenger accounted %d", st.Heap.BinBytesReleased, st.ScavengeBinBytes)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after binned release: %v", err)
		}
		// Re-carve the released chunk: the burst pays refaults, data works.
		refBefore := as.Stats().Refaults
		B, err := al.Malloc(main, big)
		if err != nil {
			t.Errorf("re-Malloc: %v", err)
			return
		}
		for off := uint64(0); off < big; off += 4096 {
			as.Write8(main, B+off, 0xCD)
		}
		if got := as.Stats().Refaults; got <= refBefore {
			t.Errorf("refaults %d -> %d: re-carving released interior charged nothing", refBefore, got)
		}
		if err := al.Free(main, B); err != nil {
			t.Errorf("Free B: %v", err)
		}
		if err := al.Free(main, pin); err != nil {
			t.Errorf("Free pin: %v", err)
		}
		if err := al.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBinnedReleaseChurnTorture is the property test for the binned release:
// random malloc/free churn with a forced scavenge pass between steps, the
// structural checker running throughout. Live chunks must never lose their
// stamps (a release that touched an allocated page would zero them),
// conservation must hold down to the arena malloc==free balance after a full
// decay, and the refault count must line up with the released pages when the
// released interiors are re-carved.
func TestBinnedReleaseChurnTorture(t *testing.T) {
	m, as := newWorld(2, 167)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(50000, 50)
		costs.ScavengeMinBinBytes = 4096 // depot stays on: all five stages race the churn
		costs.ScavengeBinPad = -1        // and the binned stage releases everything it can
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		al.AttachThread(main)
		r := xrand.New(167, 1)
		type obj struct {
			p     uint64
			n     uint32
			stamp byte
		}
		var live []obj
		for j := 0; j < 800; j++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				k := r.Intn(len(live))
				o := live[k]
				if as.Read8(main, o.p) != o.stamp || as.Read8(main, o.p+uint64(o.n)-1) != o.stamp {
					t.Errorf("step %d: stamp corrupted at 0x%x size %d (release touched a live chunk?)", j, o.p, o.n)
					return
				}
				if err := al.Free(main, o.p); err != nil {
					t.Errorf("step %d: Free: %v", j, err)
					return
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				n := uint32(1 + r.Intn(60000)) // spans cached, direct-arena and page-spanning sizes
				p, err := al.Malloc(main, n)
				if err != nil {
					t.Errorf("step %d: Malloc(%d): %v", j, n, err)
					return
				}
				stamp := byte(1 + r.Intn(255))
				as.Write8(main, p, stamp)
				as.Write8(main, p+uint64(n)-1, stamp)
				live = append(live, obj{p, n, stamp})
			}
			// One idle epoch, then a forced pass between every two steps:
			// the scavenger races the churn at maximum pressure.
			main.Charge(60000)
			al.Scavenger().Force(main)
			if j%100 == 0 {
				if err := al.Check(); err != nil {
					t.Errorf("step %d: Check: %v", j, err)
					return
				}
			}
		}
		for _, o := range live {
			if as.Read8(main, o.p) != o.stamp || as.Read8(main, o.p+uint64(o.n)-1) != o.stamp {
				t.Errorf("drain: stamp corrupted at 0x%x size %d", o.p, o.n)
				return
			}
			if err := al.Free(main, o.p); err != nil {
				t.Errorf("drain Free: %v", err)
				return
			}
		}
		// Decay every tier dry, then check conservation to the arena level.
		for i := 0; i < 40 && al.ParkedBytes() > 0; i++ {
			main.Charge(60000)
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
			t.Errorf("arena mallocs %d != arena frees %d after full decay", am, af)
		}
		st := al.Stats()
		vs := as.Stats()
		if st.Heap.BinReleases == 0 {
			t.Error("the churn never exercised the binned release stage")
		}
		if vs.Refaults == 0 {
			t.Error("released interiors were never re-carved (no refaults)")
		}
		if vs.Refaults > vs.PagesReleased {
			t.Errorf("refaults %d > pages released %d: refaulted a page nobody released", vs.Refaults, vs.PagesReleased)
		}
		if err := al.Check(); err != nil {
			t.Errorf("final Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDetachImmediatelyBeforeAndAfterEpoch pins the detach/epoch boundary:
// a magazine donated by DetachThread right as an epoch fires must end up
// either in the depot or in the arenas — exactly once.
func TestDetachImmediatelyBeforeAndAfterEpoch(t *testing.T) {
	m, as := newWorld(2, 149)
	err := m.Run(func(main *sim.Thread) {
		costs := scavCosts(50000, 100)
		al, err := NewThreadCache(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewThreadCache: %v", err)
			return
		}
		narrowScav(al)
		total := 0
		for round := 0; round < 6; round++ {
			w := main.Spawn(fmt.Sprintf("r%d", round), func(w *sim.Thread) {
				al.AttachThread(w)
				var ps []uint64
				for i := 0; i < 12; i++ {
					p, err := al.Malloc(w, 64)
					if err != nil {
						t.Errorf("Malloc: %v", err)
						return
					}
					ps = append(ps, p)
				}
				for _, p := range ps {
					if err := al.Free(w, p); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
				// Detach donates; the forced pass right after must not
				// double-count whatever the detach just moved.
				al.DetachThread(w)
				al.Scavenger().Force(w)
			})
			main.Join(w)
			total += 12
			if err := al.Check(); err != nil {
				t.Errorf("round %d Check: %v", round, err)
				return
			}
		}
		st := al.Stats()
		if st.Heap.Mallocs != uint64(total) || st.Heap.Frees != uint64(total) {
			t.Errorf("user ops %d/%d, want %d/%d", st.Heap.Mallocs, st.Heap.Frees, total, total)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
