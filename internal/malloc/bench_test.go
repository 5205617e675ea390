package malloc

import (
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// Host-side benchmarks of the allocator layer: what one simulated
// free/malloc pair costs to run through a design's full call path —
// per-thread lookups, magazines, depots, arenas and the vm underneath.

// BenchmarkLarson runs a Larson-style churn for each design the benchmark
// workloads cover: four simulated threads on a four-CPU machine, each
// owning 100 slots of 10-100 B chunks and replacing a random slot per op.
// b.N counts free/malloc pairs across all threads; seeds are fixed.
func BenchmarkLarson(b *testing.B) {
	const threads, slots = 4, 100
	kinds := []Kind{KindSerial, KindPTMalloc, KindPerThread, KindThreadCache, KindLockFree, KindThreadCacheSvc}
	for _, kind := range kinds {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			m, as := newWorld(threads, 1)
			err := m.Run(func(main *sim.Thread) {
				al, err := New(main, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					panic(err)
				}
				svc := ServiceOf(al)
				svc.Start(main)
				b.ResetTimer()
				var ws []*sim.Thread
				for w := 0; w < threads; w++ {
					ops := b.N / threads
					if w < b.N%threads {
						ops++
					}
					ws = append(ws, main.Spawn("larson", func(th *sim.Thread) {
						al.AttachThread(th)
						defer al.DetachThread(th)
						r := xrand.New(1, uint64(th.ID()))
						size := func() uint32 { return uint32(10 + r.Intn(91)) }
						live := make([]uint64, slots)
						var err error
						for i := range live {
							if live[i], err = al.Malloc(th, size()); err != nil {
								panic(err)
							}
						}
						for i := 0; i < ops; i++ {
							s := r.Intn(slots)
							if err := al.Free(th, live[s]); err != nil {
								panic(err)
							}
							if live[s], err = al.Malloc(th, size()); err != nil {
								panic(err)
							}
						}
						for _, p := range live {
							if err := al.Free(th, p); err != nil {
								panic(err)
							}
						}
					}))
				}
				for _, w := range ws {
					main.Join(w)
				}
				b.StopTimer()
				svc.Stop(main)
				if err := al.Check(); err != nil {
					panic(err)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
