package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
	"mtmalloc/internal/vm"
)

// B2Config parameterizes benchmark 2, the heap-leak test: Threads chains of
// worker threads each inherit an array of Objects pointers to Size-byte
// objects, replace a random half (b2Replace) one at a time (free then
// malloc), then spawn their successor ("round") and exit. The metric is the
// process's minor page fault count, compared against a lower-bound
// predictor.
type B2Config struct {
	Profile Profile
	Threads int
	Rounds  int
	Objects int    // objects per chain; the paper uses 10,000
	Size    uint32 // request size; the paper uses 40 bytes
	// BatchReplace > 1 makes each round free that many objects in a burst
	// before re-allocating them, instead of the paper's free-then-malloc
	// per object. Bursts are what push a magazine past its high-water mark,
	// so the mid-tier ablation (D2) uses them; 0 or 1 keeps the paper's
	// exact pattern.
	BatchReplace int
	// TouchObjects makes each replace read the old object's first byte
	// before freeing it and write the new object's after allocating —
	// the application touching what it allocates, which the paper's fault
	// benchmark never does. The locality experiment (D4) needs it: whether
	// an object's memory is local to the chain thread only costs anything
	// if the thread actually dereferences it. Off by default, so the
	// paper's fault counts are untouched.
	TouchObjects bool
	Runs         int
	Seed         uint64
}

// b2Replace is the fraction of its objects each benchmark-2 round
// replaces, the paper's half.
const b2Replace = 0.5

// DefaultB2 fills the paper's constants.
func DefaultB2(p Profile) B2Config {
	return B2Config{Profile: p, Threads: 1, Rounds: 1, Objects: 10000, Size: 40, Runs: 5, Seed: 1}
}

// B2Run is one execution's observables, both snapshotted at the end: the
// address space's (minor faults, peak mapped bytes, remote accesses) and
// the allocator's (arenas, arena-lock acquisitions, depot traffic).
type B2Run struct {
	VMStats    vm.Stats
	AllocStats malloc.Stats
}

// B2Result aggregates runs and carries the predictor value.
type B2Result struct {
	Config    B2Config
	Runs      []B2Run
	Faults    stats.Summary
	Predicted float64
}

// PredictMinorFaults is the paper's lower-bound fault predictor
// mpf = 14 + 1.1*t*r + 127.6*t.
func PredictMinorFaults(threads, rounds int) float64 {
	return 14 + 1.1*float64(threads*rounds) + 127.6*float64(threads)
}

// RunBench2 executes the configured runs.
func RunBench2(cfg B2Config) (B2Result, error) {
	if cfg.Threads < 1 || cfg.Rounds < 1 || cfg.Objects < 1 || cfg.Runs < 1 {
		return B2Result{}, fmt.Errorf("bench2: bad config %+v", cfg)
	}
	res := B2Result{Config: cfg, Predicted: PredictMinorFaults(cfg.Threads, cfg.Rounds)}
	for run := 0; run < cfg.Runs; run++ {
		r, err := runBench2Once(cfg, cfg.Seed+uint64(run)*104729)
		if err != nil {
			return B2Result{}, fmt.Errorf("bench2 run %d: %w", run, err)
		}
		res.Runs = append(res.Runs, r)
	}
	var xs []float64
	for _, r := range res.Runs {
		xs = append(xs, float64(r.VMStats.MinorFaults))
	}
	res.Faults = stats.Summarize(xs)
	return res, nil
}

func runBench2Once(cfg B2Config, seed uint64) (B2Run, error) {
	w := NewWorld(cfg.Profile, seed)
	var out B2Run
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		svc := malloc.ServiceOf(al)
		svc.Start(main)

		// Main allocates each chain's pointer array and initial objects,
		// storing the addresses in simulated memory (the array pages are
		// part of the measured footprint).
		arrays := make([]uint64, cfg.Threads)
		for c := 0; c < cfg.Threads; c++ {
			arr, err := al.Malloc(main, uint32(4*cfg.Objects))
			if err != nil {
				panic(fmt.Sprintf("bench2: array alloc: %v", err))
			}
			arrays[c] = arr
			for i := 0; i < cfg.Objects; i++ {
				p, err := al.Malloc(main, cfg.Size)
				if err != nil {
					panic(fmt.Sprintf("bench2: object alloc: %v", err))
				}
				as.Write32(main, arr+uint64(4*i), uint32(p))
			}
		}

		// Chain worker: replace a subset, spawn successor, wait for it so
		// the main thread's joins cover whole chains transitively.
		bs := cfg.BatchReplace
		if bs < 1 {
			bs = 1
		}
		var round func(chain, r int) func(*sim.Thread)
		round = func(chain, r int) func(*sim.Thread) {
			return func(t *sim.Thread) {
				al.AttachThread(t)
				arr := arrays[chain]
				rng := t.RNG()
				var pending []int
				replaceBatch := func() {
					for _, i := range pending {
						old := uint64(as.Read32(t, arr+uint64(4*i)))
						if cfg.TouchObjects {
							as.Read8(t, old)
						}
						if err := al.Free(t, old); err != nil {
							panic(fmt.Sprintf("bench2: free: %v", err))
						}
					}
					for _, i := range pending {
						p, err := al.Malloc(t, cfg.Size)
						if err != nil {
							panic(fmt.Sprintf("bench2: malloc: %v", err))
						}
						if cfg.TouchObjects {
							as.Write8(t, p, byte(i))
						}
						as.Write32(t, arr+uint64(4*i), uint32(p))
					}
					pending = pending[:0]
				}
				for i := 0; i < cfg.Objects; i++ {
					if rng.Float64() >= b2Replace {
						continue
					}
					pending = append(pending, i)
					if len(pending) >= bs {
						replaceBatch()
					}
				}
				replaceBatch()
				al.DetachThread(t)
				if r+1 < cfg.Rounds {
					succ := t.Spawn(fmt.Sprintf("chain%d-r%d", chain, r+1), round(chain, r+1))
					t.Join(succ)
				}
			}
		}

		heads := make([]*sim.Thread, cfg.Threads)
		for c := 0; c < cfg.Threads; c++ {
			heads[c] = main.Spawn(fmt.Sprintf("chain%d-r0", c), round(c, 0))
		}
		for _, h := range heads {
			main.Join(h)
		}
		svc.Stop(main)

		out.VMStats = as.Stats()
		out.AllocStats = al.Stats()
	})
	return out, err
}
