package vm

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
)

// Host-side benchmarks of the vm access path: what one simulated load or
// store costs to run, with the page walk, the coherence directory and the
// cycle charge included.

// sink keeps benchmarked loads from being optimized away.
var sink uint32

// benchSpace runs body on thread 0 of a fresh 2-CPU machine split over the
// given number of NUMA nodes.
func benchSpace(b *testing.B, nodes int, body func(th *sim.Thread, as *AddressSpace)) {
	b.Helper()
	m := sim.NewMachine(sim.Config{CPUs: 2, Nodes: nodes, ClockMHz: 100, Seed: 1})
	as := New(1, m, cache.NewModel(2, cache.DefaultCosts()))
	if err := m.Run(func(th *sim.Thread) { body(th, as) }); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRead32Hit: one CPU re-reading a word it already holds.
func BenchmarkRead32Hit(b *testing.B) {
	benchSpace(b, 1, func(th *sim.Thread, as *AddressSpace) {
		base, _ := as.Sbrk(th, PageSize)
		as.Write32(th, base+64, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = as.Read32(th, base+64)
		}
	})
}

// BenchmarkWrite32PingPong: two CPUs take turns writing the same lines, so
// every write fetches its line dirty from the other CPU's cache. The
// thread moves between CPUs once per sweep of pingPongLines lines.
func BenchmarkWrite32PingPong(b *testing.B) { pingPong(b, 1) }

// BenchmarkWrite32PingPongCrossNode: the same ping-pong with the two CPUs
// on different NUMA nodes, so every transfer also takes the remote-fill
// path that looks up the supplier's node.
func BenchmarkWrite32PingPongCrossNode(b *testing.B) { pingPong(b, 2) }

func pingPong(b *testing.B, nodes int) {
	const pingPongLines = 1024
	benchSpace(b, nodes, func(th *sim.Thread, as *AddressSpace) {
		base, _ := as.Sbrk(th, pingPongLines*32)
		for a := base; a < base+pingPongLines*32; a += PageSize {
			as.Write32(th, a, 0) // fault the pages in before timing
		}
		b.ResetTimer()
		cpu := 0
		for n := 0; n < b.N; {
			cpu ^= 1
			th.Pin(cpu)
			th.Yield()
			for i := uint64(0); i < pingPongLines && n < b.N; i, n = i+1, n+1 {
				as.Write32(th, base+i*32, uint32(n))
			}
		}
	})
}

// BenchmarkMapTouchUnmap: one 160 KB mmap, a write to every page, and the
// munmap that drops the pages with their cache lines. The 40 faults draw
// their page records and granules from the pool the previous munmap filled,
// so B/op and allocs/op are 0 (TestWarmCycleAllocatesNothing pins it).
func BenchmarkMapTouchUnmap(b *testing.B) {
	const region = 160 << 10
	b.ReportAllocs()
	benchSpace(b, 1, func(th *sim.Thread, as *AddressSpace) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addr, err := as.Mmap(th, region, "bench")
			if err != nil {
				panic(err)
			}
			for a := addr; a < addr+region; a += PageSize {
				as.Write32(th, a, 1)
			}
			if err := as.Munmap(th, addr, region); err != nil {
				panic(err)
			}
		}
	})
}
