package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
)

// TestReallocCallocAcrossArenas covers the cross-arena routing paths for
// every kind: a producer thread fills its arena, a consumer thread (owning
// a different arena where the design has one) reallocs every chunk — forcing
// moves whose size reads, copies and frees must route through the chunk's
// owning arena — and callocs fresh zeroed memory. Asserts data integrity,
// copied-byte accounting, cross-arena free counts and Check() cleanliness.
// The offloaded kinds run their service threads through both phases.
func TestReallocCallocAcrossArenas(t *testing.T) {
	const nObjs = 60
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, as := newWorld(2, 31)
			err := m.Run(func(main *sim.Thread) {
				al, err := New(main, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				svc := ServiceOf(al)
				svc.Start(main)
				space := al.AddressSpace()
				var objs []uint64
				prod := main.Spawn("prod", func(w *sim.Thread) {
					al.AttachThread(w)
					defer al.DetachThread(w)
					for i := 0; i < nObjs; i++ {
						p, err := al.Malloc(w, 100)
						if err != nil {
							t.Errorf("producer Malloc: %v", err)
							return
						}
						space.Write8(w, p, byte(i+1))
						objs = append(objs, p)
					}
				})
				main.Join(prod)
				cons := main.Spawn("cons", func(w *sim.Thread) {
					al.AttachThread(w)
					defer al.DetachThread(w)
					// Allocate first so the consumer owns its own arena in
					// the multi-arena designs.
					own, err := al.Malloc(w, 64)
					if err != nil {
						t.Errorf("consumer Malloc: %v", err)
						return
					}
					for i, p := range objs {
						np, err := al.Realloc(w, p, 300)
						if err != nil {
							t.Errorf("Realloc: %v", err)
							return
						}
						if got := space.Read8(w, np); got != byte(i+1) {
							t.Errorf("obj %d: stamp %x after realloc, want %x", i, got, byte(i+1))
							return
						}
						objs[i] = np
					}
					q, err := al.Calloc(w, 256)
					if err != nil {
						t.Errorf("Calloc: %v", err)
						return
					}
					for j := uint64(0); j < 256; j++ {
						if space.Read8(w, q+j) != 0 {
							t.Errorf("calloc byte %d nonzero", j)
							return
						}
					}
					if err := al.Free(w, q); err != nil {
						t.Errorf("Free calloc: %v", err)
						return
					}
					if err := al.Free(w, own); err != nil {
						t.Errorf("Free own: %v", err)
					}
				})
				main.Join(cons)
				svc.Stop(main)

				st := al.Stats()
				// Nearly all chunks must have moved and copied their
				// payload; a handful can grow in place when their successor
				// happens to be free (the top chunk, or a flushed tail of a
				// thread-cache refill batch).
				if want := uint64((nObjs - 5) * 100); st.Heap.BytesCopied < want {
					t.Errorf("BytesCopied = %d, want >= %d", st.Heap.BytesCopied, want)
				}
				if kind == KindPerThread || kind == KindThreadCache {
					if st.CrossArenaFrees == 0 {
						t.Error("no cross-arena frees counted despite consumer realloc of producer chunks")
					}
					if st.ArenaCount < 2 {
						t.Errorf("arena count = %d, want >= 2", st.ArenaCount)
					}
				}
				for _, p := range objs {
					if err := al.Free(main, p); err != nil {
						t.Errorf("drain Free: %v", err)
						return
					}
				}
				if err := al.Check(); err != nil {
					t.Errorf("Check: %v", err)
				}
				st = al.Stats()
				if st.Heap.Mallocs != st.Heap.Frees {
					t.Errorf("mallocs %d != frees %d after full drain", st.Heap.Mallocs, st.Heap.Frees)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
