package bench

import (
	"fmt"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
)

// B3Config parameterizes benchmark 3, the false-sharing test: Threads (at
// most the CPU count) each receive one Size-byte heap object and write a
// byte at its front and back Writes times. Aligned uses the cache-aligned
// allocator variant (HeapParams.Align = cache.LineSize, which turns on the
// allocator's line-aware placement); normal uses default 8-byte alignment,
// so neighbouring objects can share cache lines and ping-pong between CPUs.
//
// The objects come from the profile's allocator design (Profile.Allocator,
// priced by Profile.AllocCosts), so the benchmark exercises that design's
// real placement (magazine refills, depot spans, buddy carving, line
// quantization) with an offloaded kind's service threads running. The write
// loop itself still advances analytically from the resulting sharing
// topology — the placement is real, the 100M iterations are not replayed.
type B3Config struct {
	Profile Profile
	Threads int
	Size    uint32
	Writes  int64
	Aligned bool
	Runs    int
	Seed    uint64
}

// B3Run is one execution's observables.
type B3Run struct {
	WallSeconds float64
	// SharedLines is how many cache lines ended up written by >1 thread.
	SharedLines int
}

// B3Result aggregates runs for one (threads, size, aligned) point.
type B3Result struct {
	Config B3Config
	Runs   []B3Run
	Wall   stats.Summary
}

// RunBench3 executes the configured runs.
func RunBench3(cfg B3Config) (B3Result, error) {
	if cfg.Threads < 1 || cfg.Threads > cfg.Profile.CPUs {
		return B3Result{}, fmt.Errorf("bench3: threads %d must be in 1..#CPUs (%d)", cfg.Threads, cfg.Profile.CPUs)
	}
	if cfg.Size < 1 || cfg.Writes < 1 || cfg.Runs < 1 {
		return B3Result{}, fmt.Errorf("bench3: bad config %+v", cfg)
	}
	res := B3Result{Config: cfg}
	for run := 0; run < cfg.Runs; run++ {
		r, err := runBench3Once(cfg, cfg.Seed+uint64(run)*31337)
		if err != nil {
			return B3Result{}, fmt.Errorf("bench3 run %d: %w", run, err)
		}
		res.Runs = append(res.Runs, r)
	}
	var xs []float64
	for _, r := range res.Runs {
		xs = append(xs, r.WallSeconds)
	}
	res.Wall = stats.Summarize(xs)
	return res, nil
}

func runBench3Once(cfg B3Config, seed uint64) (B3Run, error) {
	prof := cfg.Profile
	if cfg.Aligned {
		prof.HeapParams.Align = cache.LineSize
	}
	w := NewWorld(prof, seed)
	var out B3Run
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		svc := malloc.ServiceOf(al)
		svc.Start(main)

		// Real allocators arrive at this benchmark with history, which is
		// why the paper calls normal-mode addresses "somewhat
		// nondeterministic". Model that with a few random warm-up
		// allocations that shift subsequent placement.
		rng := main.RNG()
		for i, n := 0, rng.Intn(6); i < n; i++ {
			if _, err := al.Malloc(main, uint32(8*(1+rng.Intn(7)))); err != nil {
				panic(err)
			}
		}

		// One object per thread, allocated back to back by the parent as
		// in the paper.
		objs := make([]uint64, cfg.Threads)
		for i := range objs {
			p, err := al.Malloc(main, cfg.Size)
			if err != nil {
				panic(fmt.Sprintf("bench3: malloc: %v", err))
			}
			objs[i] = p
		}

		// Line-sharing topology: how many threads write each touched line.
		writers := make(map[uint64]int)
		countLine := func(addr uint64) uint64 { return addr >> cache.LineShift }
		for i := range objs {
			front := countLine(objs[i])
			back := countLine(objs[i] + uint64(cfg.Size) - 1)
			writers[front]++
			if back != front {
				writers[back]++
			}
		}
		for _, n := range writers {
			if n > 1 {
				out.SharedLines++
			}
		}

		start := main.Now()
		workers := make([]*sim.Thread, cfg.Threads)
		for i := 0; i < cfg.Threads; i++ {
			obj := objs[i]
			workers[i] = main.Spawn(fmt.Sprintf("writer-%d", i), func(t *sim.Thread) {
				front := obj
				back := obj + uint64(cfg.Size) - 1
				// Touch the object for real once: page faults and first
				// coherence traffic happen in the directory model.
				as.Write8(t, front, 0xAA)
				as.Write8(t, back, 0xBB)
				// The 100M-iteration write loop advances analytically: the
				// sharing topology is fixed until the next alloc/free, so
				// the steady per-iteration cost is exact (see
				// cache.Model.SteadyWriteCost).
				perIter := w.Cache.SteadyWriteCost(writers[countLine(front)]) +
					w.Cache.SteadyWriteCost(writers[countLine(back)]) +
					prof.Bench3LoopWork
				const chunks = 16
				per := cfg.Writes / chunks
				for c := int64(0); c < chunks; c++ {
					n := per
					if c == chunks-1 {
						n = cfg.Writes - per*(chunks-1)
					}
					t.Charge(sim.Time(n * perIter))
					t.Yield()
				}
			})
		}
		for _, wk := range workers {
			main.Join(wk)
		}
		out.WallSeconds = w.Seconds(main.Now() - start)
		svc.Stop(main)
	})
	return out, err
}
