package heap

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

// Host-side benchmark of the arena layer: what one simulated free/malloc
// pair costs to run, with the bin lists, the release books and every
// charged metadata access included.

// BenchmarkArenaChurn is a Larson-style churn on one arena: 1000 slots of
// 10-100 B chunks, each op frees a random slot and refills it with a new
// random size. The seed is fixed, so every run replays one op sequence.
func BenchmarkArenaChurn(b *testing.B) {
	const slots = 1000
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	as := vm.New(1, m, cache.NewModel(1, cache.DefaultCosts()))
	params := DefaultParams()
	err := m.Run(func(th *sim.Thread) {
		a, err := NewMain(th, as, &params)
		if err != nil {
			panic(err)
		}
		r := xrand.New(1, 1)
		size := func() uint32 { return uint32(10 + r.Intn(91)) }
		live := make([]uint64, slots)
		for i := range live {
			if live[i], err = a.Malloc(th, size()); err != nil {
				panic(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := r.Intn(slots)
			if err := a.Free(th, live[s]); err != nil {
				panic(err)
			}
			if live[s], err = a.Malloc(th, size()); err != nil {
				panic(err)
			}
		}
		b.StopTimer()
		if err := a.Check(); err != nil {
			panic(err)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
