package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
)

// B1Config parameterizes benchmark 1, the malloc/free scalability loop:
// every worker performs Pairs balanced malloc(Size)/free pairs, and the
// workers either share one C library instance (thread mode) or get one
// instance each (process mode).
type B1Config struct {
	Profile   Profile
	Threads   int
	Processes bool // one instance per worker instead of a shared one
	Size      uint32
	Pairs     int
	Runs      int
	Seed      uint64
	// Allocator overrides the profile default when non-empty (ablations).
	Allocator malloc.Kind
	// Costs overrides the profile's allocator cost params when non-nil
	// (mid-tier ablations).
	Costs *malloc.CostParams
}

// B1Run is one benchmark execution: per-worker elapsed seconds.
type B1Run struct {
	PerThread []float64
	// ArenaCount is the number of arenas in instance 0 at the end.
	ArenaCount int
	// AllocStats is instance 0's allocator statistics at the end, so
	// experiments can report trylock failures, cross-arena frees and cache
	// hit rates alongside elapsed time.
	AllocStats malloc.Stats
}

// B1Result aggregates repeated runs.
type B1Result struct {
	Config    B1Config
	Runs      []B1Run
	PerThread []stats.Summary // per worker index, across runs
	All       stats.Summary   // every sample
}

// RunBench1 executes the configured number of runs and aggregates.
func RunBench1(cfg B1Config) (B1Result, error) {
	if cfg.Threads < 1 || cfg.Pairs < 1 || cfg.Runs < 1 {
		return B1Result{}, fmt.Errorf("bench1: bad config %+v", cfg)
	}
	res := B1Result{Config: cfg}
	for run := 0; run < cfg.Runs; run++ {
		r, err := runBench1Once(cfg, cfg.Seed+uint64(run)*7919)
		if err != nil {
			return B1Result{}, fmt.Errorf("bench1 run %d: %w", run, err)
		}
		res.Runs = append(res.Runs, r)
	}
	var all []float64
	for ti := 0; ti < cfg.Threads; ti++ {
		var xs []float64
		for _, r := range res.Runs {
			xs = append(xs, r.PerThread[ti])
			all = append(all, r.PerThread[ti])
		}
		res.PerThread = append(res.PerThread, stats.Summarize(xs))
	}
	res.All = stats.Summarize(all)
	return res, nil
}

func runBench1Once(cfg B1Config, seed uint64) (B1Run, error) {
	w := NewWorld(cfg.Profile.withAlloc(cfg.Allocator, cfg.Costs), seed)
	out := B1Run{PerThread: make([]float64, cfg.Threads)}
	err := w.Run(func(main *sim.Thread) {
		// Build instances: one shared, or one per worker.
		insts := make([]*Instance, 0, cfg.Threads)
		n := 1
		if cfg.Processes {
			n = cfg.Threads
		}
		for i := 0; i < n; i++ {
			inst, err := w.AddInstance(main)
			if err != nil {
				panic(err)
			}
			malloc.ServiceOf(inst.Alloc).Start(main)
			insts = append(insts, inst)
		}
		workers := make([]*sim.Thread, cfg.Threads)
		for i := 0; i < cfg.Threads; i++ {
			inst := insts[0]
			if cfg.Processes {
				inst = insts[i]
			}
			w.BindThread(main, inst) // children inherit this instance
			idx := i
			workers[i] = main.Spawn(fmt.Sprintf("worker-%d", i), func(t *sim.Thread) {
				al := inst.Alloc
				al.AttachThread(t)
				defer al.DetachThread(t)
				start := t.Now()
				for j := 0; j < cfg.Pairs; j++ {
					p, err := al.Malloc(t, cfg.Size)
					if err != nil {
						panic(fmt.Sprintf("bench1: malloc: %v", err))
					}
					if err := al.Free(t, p); err != nil {
						panic(fmt.Sprintf("bench1: free: %v", err))
					}
				}
				out.PerThread[idx] = w.Seconds(t.Now() - start)
			})
		}
		for _, wk := range workers {
			main.Join(wk)
		}
		for _, inst := range insts {
			malloc.ServiceOf(inst.Alloc).Stop(main)
		}
		out.ArenaCount = len(insts[0].Alloc.Arenas())
		out.AllocStats = insts[0].Alloc.Stats()
	})
	return out, err
}

// ScaleSeconds linearly rescales measured seconds from a reduced iteration
// count to the paper's full count. The loop is steady-state after its first
// few thousand iterations, so elapsed time is linear in Pairs; cmd/repro
// documents when scaling was applied.
func ScaleSeconds(measured float64, ranPairs, fullPairs int) float64 {
	if ranPairs == fullPairs {
		return measured
	}
	return measured * float64(fullPairs) / float64(ranPairs)
}
