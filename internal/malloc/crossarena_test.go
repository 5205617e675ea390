package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
)

// TestCrossArenaFreesAllKinds covers the cross-arena free routing for every
// kind: a producer thread fills its arena, and a consumer thread (owning a
// different arena where the design has one) frees every chunk, each free
// routing to the chunk's owning arena. Asserts the stamps survive the
// handoff, cross-arena free counts and Check() cleanliness. The offloaded
// kinds run their service threads through both phases.
func TestCrossArenaFreesAllKinds(t *testing.T) {
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
						if got := space.Read8(w, p); got != byte(i+1) {
							t.Errorf("obj %d: stamp %x before free, want %x", i, got, byte(i+1))
							return
						}
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
				svc.Stop(main)

				st := al.Stats()
				if kind == KindPerThread || kind == KindThreadCache {
					if st.CrossArenaFrees == 0 {
						t.Error("no cross-arena frees counted despite consumer frees of producer chunks")
					}
					if st.ArenaCount < 2 {
						t.Errorf("arena count = %d, want >= 2", st.ArenaCount)
					}
				}
				if err := al.Check(); err != nil {
					t.Errorf("Check: %v", err)
				}
				if st.Heap.Mallocs != st.Heap.Frees {
					t.Errorf("mallocs %d != frees %d after the consumer freed everything", st.Heap.Mallocs, st.Heap.Frees)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
