package malloc

import (
	"errors"
	"strings"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

func newWorld(cpus int, seed uint64) (*sim.Machine, *vm.AddressSpace) {
	m := sim.NewMachine(sim.Config{CPUs: cpus, ClockMHz: 100, Seed: seed})
	c := cache.NewModel(cpus, cache.DefaultCosts())
	return m, vm.New(1, m, c)
}

// TestParseKind: the check the command-line tools run on -allocator accepts
// every kind Kinds lists and rejects any other name with one line that
// names them all.
func TestParseKind(t *testing.T) {
	for _, kind := range Kinds() {
		got, err := ParseKind(string(kind))
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %q, %v", kind, got, err)
		}
	}
	_, err := ParseKind("bogus")
	if err == nil {
		t.Fatal("ParseKind accepted \"bogus\"")
	}
	msg := err.Error()
	if strings.Contains(msg, "\n") {
		t.Errorf("error spans lines: %q", msg)
	}
	for _, kind := range Kinds() {
		if !strings.Contains(msg, string(kind)) {
			t.Errorf("error %q does not name %q", msg, kind)
		}
	}
}

// runAllKinds builds an allocator of each kind and runs body against it on
// the main thread (the offloaded kinds' mailboxes stay inert: no workers).
func runAllKinds(t *testing.T, body func(t *testing.T, th *sim.Thread, al Allocator)) {
	t.Helper()
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, as := newWorld(2, 7)
			err := m.Run(func(th *sim.Thread) {
				al, err := New(th, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				body(t, th, al)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMallocFreeAllKinds(t *testing.T) {
	runAllKinds(t, func(t *testing.T, th *sim.Thread, al Allocator) {
		var ps []uint64
		for i := 0; i < 200; i++ {
			p, err := al.Malloc(th, uint32(16+i))
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			ps = append(ps, p)
		}
		for _, p := range ps {
			if err := al.Free(th, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		st := al.Stats()
		if st.Heap.Mallocs != 200 || st.Heap.Frees != 200 {
			t.Errorf("stats: %+v", st.Heap)
		}
	})
}

func TestMmapThresholdAllKinds(t *testing.T) {
	runAllKinds(t, func(t *testing.T, th *sim.Thread, al Allocator) {
		p, err := al.Malloc(th, 256*1024)
		if err != nil {
			t.Errorf("large Malloc: %v", err)
			return
		}
		if p < vm.MmapBase {
			t.Errorf("large allocation not mmapped: %x", p)
		}
		if err := al.Free(th, p); err != nil {
			t.Errorf("Free of mmapped: %v", err)
		}
		if al.Stats().MmapDirect != 1 {
			t.Errorf("MmapDirect = %d", al.Stats().MmapDirect)
		}
	})
}

func TestPTMallocCreatesArenaUnderContention(t *testing.T) {
	m, as := newWorld(2, 3)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewPTMalloc(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewPTMalloc: %v", err)
			return
		}
		var ws []*sim.Thread
		for i := 0; i < 2; i++ {
			ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				for j := 0; j < 20000; j++ {
					p, err := al.Malloc(w, 512)
					if err != nil {
						t.Errorf("Malloc: %v", err)
						return
					}
					if err := al.Free(w, p); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		if got := len(al.Arenas()); got < 2 {
			t.Errorf("arenas = %d, want >= 2 (threads must spread)", got)
		}
		// Steady state: each worker settled on its own arena, so trylock
		// failures should be rare relative to op count.
		st := al.Stats()
		if st.TrylockFailures > st.Heap.Mallocs/2 {
			t.Errorf("trylock failures %d too high vs %d mallocs", st.TrylockFailures, st.Heap.Mallocs)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPTMallocCrossThreadFree: a producer allocates 500 chunks and a
// consumer on its own arena frees them all. The consumer allocates once
// while the producer still runs, so the trylock sweep finds the producer's
// arena busy and grows a second arena for it. Each free returns its chunk
// to the producer's arena, not the consumer's, and counts as cross-arena.
func TestPTMallocCrossThreadFree(t *testing.T) {
	const n = 500
	m, as := newWorld(2, 5)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewPTMalloc(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewPTMalloc: %v", err)
			return
		}
		var objs []uint64
		prod := main.Spawn("prod", func(w *sim.Thread) {
			for i := 0; i < n; i++ {
				p, err := al.Malloc(w, 40)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				objs = append(objs, p)
			}
		})
		var consArena *heap.Arena
		cons := main.Spawn("cons", func(w *sim.Thread) {
			own, err := al.Malloc(w, 40)
			if err != nil {
				t.Errorf("consumer Malloc: %v", err)
				return
			}
			consArena = al.lastArena.get(w.ID())
			w.Join(prod)
			for _, p := range objs {
				if err := al.Free(w, p); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
			}
			if err := al.Free(w, own); err != nil {
				t.Errorf("Free own: %v", err)
			}
		})
		main.Join(cons)
		prodArena := al.lastArena.get(prod.ID())
		if prodArena == nil || consArena == nil || prodArena == consArena {
			t.Errorf("producer arena %p, consumer arena %p: want two different arenas", prodArena, consArena)
			return
		}
		if got := al.Stats().CrossArenaFrees; got != n {
			t.Errorf("CrossArenaFrees = %d, want %d", got, n)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		// All 500 chunks freed: producer arena should be drained.
		inUse, _ := prodArena.ChunkCount()
		if inUse != 0 {
			t.Errorf("%d chunks still in use in producer arena", inUse)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPTMallocFalloverFromFullSubArena pins PTMalloc.fallover past its
// ErrArenaFull check: once the caller's sub-arena has mapped heap's 1 MB
// sub-arena budget, the next malloc is served by another arena that can
// grow (the main arena, by sbrk) or, when none can, by a fresh sub-arena.
func TestPTMallocFalloverFromFullSubArena(t *testing.T) {
	for _, c := range []struct {
		name       string
		brkBlocked bool // brk run up to the library mapping, no mmap retry
		served     int  // index of the arena that serves the fallover
		creations  uint64
	}{
		{"main arena serves", false, 0, 1},
		{"fresh arena", true, 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, as := newWorld(2, 59)
			err := m.Run(func(main *sim.Thread) {
				params := heap.DefaultParams()
				params.RetrySbrkWithMmap = !c.brkBlocked
				p, err := NewPTMalloc(main, as, params, DefaultCostParams())
				if err != nil {
					t.Errorf("NewPTMalloc: %v", err)
					return
				}
				if c.brkBlocked {
					room := int64(vm.LibBase-as.Brk()) - 8*vm.PageSize
					if _, err := as.Sbrk(main, room); err != nil {
						t.Errorf("Sbrk: %v", err)
						return
					}
				}
				// ptmalloc grows a sub-arena when its sweep finds every arena
				// busy; grow one the way lockArena does and make it the
				// caller's last arena.
				main.Lock(p.listLock)
				sub, err := p.grow(main, -1)
				main.Unlock(p.listLock)
				if err != nil {
					t.Errorf("grow: %v", err)
					return
				}
				p.lastArena.set(main.ID(), sub)
				inSub := 0
				for {
					mem, err := p.Malloc(main, 60*1024)
					if err != nil {
						t.Errorf("malloc %d: %v", inSub+1, err)
						return
					}
					if !sub.Contains(mem - heap.HeaderSz) {
						if c.served >= len(p.arenas) || !p.arenas[c.served].Contains(mem-heap.HeaderSz) {
							t.Errorf("fallover chunk 0x%x not in arena %d (%d arenas)", mem, c.served, len(p.arenas))
						}
						break
					}
					if inSub++; inSub > 20 {
						t.Errorf("sub-arena still serving after %d chunks of 60 KB", inSub)
						return
					}
				}
				if inSub < 10 {
					t.Errorf("sub-arena served only %d chunks before falling over", inSub)
				}
				if got := p.Stats().ArenaCreations; got != c.creations {
					t.Errorf("ArenaCreations = %d, want %d", got, c.creations)
				}
				if err := p.Check(); err != nil {
					t.Errorf("Check: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPerThreadArenasAreDistinct(t *testing.T) {
	m, as := newWorld(2, 11)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewPerThread(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewPerThread: %v", err)
			return
		}
		arenas := make(map[*heap.Arena]bool)
		var ws []*sim.Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
				p, err := al.Malloc(w, 64)
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				arenas[al.lastArena.get(w.ID())] = true
				if err := al.Free(w, p); err != nil {
					t.Errorf("Free: %v", err)
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		if len(arenas) != 3 {
			t.Errorf("distinct arenas = %d, want 3", len(arenas))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialSingleArena(t *testing.T) {
	m, as := newWorld(2, 13)
	err := m.Run(func(main *sim.Thread) {
		al, err := NewSerial(main, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewSerial: %v", err)
			return
		}
		var ws []*sim.Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
				for j := 0; j < 3000; j++ {
					p, err := al.Malloc(w, 512)
					if err != nil {
						t.Errorf("Malloc: %v", err)
						return
					}
					if err := al.Free(w, p); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
			}))
		}
		for _, w := range ws {
			main.Join(w)
		}
		if len(al.Arenas()) != 1 {
			t.Errorf("serial allocator grew arenas: %d", len(al.Arenas()))
		}
		if al.Arenas()[0].Lock.Contended == 0 {
			t.Error("no contention on the single lock despite 3 threads")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSharedTaxCharged(t *testing.T) {
	// With a large SharedTaxUnit, two attached threads must run measurably
	// slower than one.
	elapsed := func(threads int) sim.Time {
		m, as := newWorld(4, 17)
		var total sim.Time
		err := m.Run(func(main *sim.Thread) {
			costs := DefaultCostParams()
			costs.SharedTaxUnit = 5000
			al, err := NewPTMalloc(main, as, heap.DefaultParams(), costs)
			if err != nil {
				t.Errorf("NewPTMalloc: %v", err)
				return
			}
			var ws []*sim.Thread
			for i := 0; i < threads; i++ {
				ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
					al.AttachThread(w)
					defer al.DetachThread(w)
					for j := 0; j < 5000; j++ {
						p, _ := al.Malloc(w, 128)
						al.Free(w, p)
					}
				}))
			}
			for _, w := range ws {
				main.Join(w)
				total += w.Elapsed()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return total / sim.Time(threads)
	}
	one := elapsed(1)
	two := elapsed(2)
	if two < one*15/10 {
		t.Errorf("shared tax invisible: 1 thread %d, 2 threads %d", one, two)
	}
}

func TestMainArenaSloshTax(t *testing.T) {
	// With three attached threads, the thread on the main arena must be
	// slower than the others when MainArenaSloshUnit is set.
	m, as := newWorld(4, 19)
	err := m.Run(func(main *sim.Thread) {
		costs := DefaultCostParams()
		costs.SharedTaxUnit = 100
		costs.MainArenaSloshUnit = 2000
		al, err := NewPTMalloc(main, as, heap.DefaultParams(), costs)
		if err != nil {
			t.Errorf("NewPTMalloc: %v", err)
			return
		}
		var ws []*sim.Thread
		for i := 0; i < 3; i++ {
			ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
				al.AttachThread(w)
				defer al.DetachThread(w)
				for j := 0; j < 20000; j++ {
					p, _ := al.Malloc(w, 8192)
					al.Free(w, p)
				}
			}))
		}
		var mainArenaT *sim.Thread
		var times []float64
		for _, w := range ws {
			main.Join(w)
		}
		for _, w := range ws {
			a := al.lastArena.get(w.ID())
			if a != nil && a.IsMain {
				mainArenaT = w
			}
			times = append(times, float64(w.Elapsed()))
		}
		if mainArenaT == nil {
			t.Log("no worker ended on the main arena this run; acceptable")
			return
		}
		slow := float64(mainArenaT.Elapsed())
		for _, w := range ws {
			if w == mainArenaT {
				continue
			}
			if slow < float64(w.Elapsed())*1.05 {
				t.Errorf("main-arena thread not slower: %v vs %v (all %v)", slow, w.Elapsed(), times)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFreeWildPointerFails(t *testing.T) {
	runAllKinds(t, func(t *testing.T, th *sim.Thread, al Allocator) {
		// An address inside the data segment but never allocated: the size
		// word there reads zero, which must be rejected, not crash.
		err := al.Free(th, vm.DataBase+2048)
		if err == nil {
			t.Error("free of wild pointer succeeded")
		}
		if !errors.Is(err, heap.ErrBadFree) {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

func TestAlignedVariant(t *testing.T) {
	m, as := newWorld(1, 23)
	err := m.Run(func(th *sim.Thread) {
		params := heap.DefaultParams()
		params.Align = 32
		al, err := NewPTMalloc(th, as, params, DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		for _, req := range []uint32{3, 17, 40, 52} {
			p, err := al.Malloc(th, req)
			if err != nil {
				t.Errorf("Malloc(%d): %v", req, err)
				return
			}
			if p%32 != 0 {
				t.Errorf("Malloc(%d) = %x not cache-aligned", req, p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTortureMultiThread drives all kinds with concurrent workers doing
// cross-thread frees through a shared mailbox, verifying data stamps and
// structural invariants. The offloaded kinds run their service threads
// beside the workers, stopped (draining every mailbox) before the checks.
func TestTortureMultiThread(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, as := newWorld(2, 29)
			err := m.Run(func(main *sim.Thread) {
				al, err := New(main, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				svc := ServiceOf(al)
				svc.Start(main)
				type obj struct {
					p     uint64
					stamp byte
				}
				// mailbox passes objects between threads; the engine runs
				// one thread at a time so plain slices are safe.
				var mailbox []obj
				space := al.AddressSpace()
				var ws []*sim.Thread
				for i := 0; i < 3; i++ {
					ws = append(ws, main.Spawn("w", func(w *sim.Thread) {
						al.AttachThread(w)
						defer al.DetachThread(w)
						r := xrand.New(29, uint64(w.ID()))
						for j := 0; j < 2000; j++ {
							if len(mailbox) > 0 && r.Intn(3) == 0 {
								o := mailbox[len(mailbox)-1]
								mailbox = mailbox[:len(mailbox)-1]
								if space.Read8(w, o.p) != o.stamp {
									t.Errorf("stamp corrupted at %x", o.p)
									return
								}
								if err := al.Free(w, o.p); err != nil {
									t.Errorf("Free: %v", err)
									return
								}
							} else {
								n := uint32(1 + r.Intn(500))
								p, err := al.Malloc(w, n)
								if err != nil {
									t.Errorf("Malloc: %v", err)
									return
								}
								stamp := byte(j)
								space.Write8(w, p, stamp)
								mailbox = append(mailbox, obj{p, stamp})
							}
						}
					}))
				}
				for _, w := range ws {
					main.Join(w)
				}
				svc.Stop(main)
				for _, o := range mailbox {
					if err := al.Free(main, o.p); err != nil {
						t.Errorf("drain Free: %v", err)
						return
					}
				}
				if err := al.Check(); err != nil {
					t.Errorf("Check: %v", err)
				}
				st := al.Stats()
				if st.Heap.Mallocs != st.Heap.Frees {
					t.Errorf("mallocs %d != frees %d", st.Heap.Mallocs, st.Heap.Frees)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
