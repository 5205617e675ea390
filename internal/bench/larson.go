package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// LarsonConfig parameterizes the Larson & Krishnan server-simulation
// workload the paper's benchmark 2 is a simplification of: each thread owns
// an array of slots holding objects of uniformly random size in
// [MinSize, MaxSize]; every operation frees a random slot and refills it
// with a fresh allocation. The paper fixed the size to 40 bytes; this is
// the full random-size variant, kept as an extension workload.
type LarsonConfig struct {
	Profile Profile
	Threads int
	Slots   int    // slots per thread
	MinSize uint32 // inclusive
	MaxSize uint32 // inclusive
	Ops     int    // replace operations per thread
	// Phases, when non-empty, replaces the flat Ops loop with a burst/idle
	// schedule: each phase runs its Ops replaces and then sleeps its
	// IdleSeconds before the next burst (bursty server scenarios; D3's
	// footprint experiment uses the same schedule shape).
	Phases []Phase
	// TouchObjects makes each replace fill the fresh object (one write per
	// page) and read the old one's first byte before freeing it — the
	// server actually using its buffers. The locality experiment (D4) turns
	// it on so the cost of serving a thread memory homed on another node is
	// visible: every page of a remotely-homed buffer pays the interconnect
	// multiplier when its lines miss. Off by default, keeping the
	// throughput workloads exactly as they were.
	TouchObjects bool
	// Producers, when > 0, switches to the node-imbalanced handoff variant:
	// the first Producers threads allocate every object and hand each one to
	// a consumer mailbox; the remaining Threads-Producers threads only free.
	// Producers spawn first, so the scheduler packs them onto the
	// lowest-numbered CPUs — one node when Producers <= CPUs/Nodes — and
	// every free is a cross-thread (usually cross-node) free aimed at that
	// node's tier-2/3 structures. The D5 scaling probe uses it to
	// concentrate contention on one node's depot and page backend instead of
	// spreading it evenly. Ops still counts replaces per producer.
	Producers int
	// Rotate switches to the classic Larson & Krishnan "bleeding" handoff,
	// the benchmark's defining structure: memory allocated by one thread is
	// freed by another. Ops is split into larsonRotateRounds rounds; between
	// rounds every thread hands its slot array to the next one, so each
	// round frees objects the array's previous holder allocated — balanced
	// cross-thread (at NUMA scale mostly cross-node) frees, the sustained
	// remote-free and refill traffic a server's allocator actually sees.
	// A full barrier separates rounds so two threads never work one array.
	// Mutually exclusive with Producers and Phases.
	Rotate bool
	Runs   int
	Seed   uint64
	// Allocator overrides the profile default when non-empty.
	Allocator malloc.Kind
	// Costs overrides the profile's allocator cost params when non-nil
	// (mid-tier ablations).
	Costs *malloc.CostParams
	// MemLimit, when > 0, caps the instance's committed bytes
	// (vm.SetMemLimit) before the workload starts: growth past it fails
	// with vm.ErrNoMem and the allocator's emergency cascade takes over. A
	// slot refill that still runs out of memory is a skipped operation —
	// the slot stays empty and is skipped on its next turn — counted in
	// LarsonRun.OOMSkips; any other failure still aborts the run.
	MemLimit uint64
	// Telemetry attaches a telemetry recorder, clocked at the profile's
	// ClockMHz, to each run's allocator (per-op latency histograms, tier
	// attribution, time series, trace events; see internal/telemetry). The
	// recorder of run i lands in Runs[i].Telemetry. Recording charges no
	// cycles, so enabling it leaves every observable bit-identical.
	Telemetry bool
}

// larsonRotateRounds is the number of handoff rounds of a Rotate run,
// clamped to Ops.
const larsonRotateRounds = 8

// DefaultLarson returns the conventional parameters.
func DefaultLarson(p Profile) LarsonConfig {
	return LarsonConfig{Profile: p, Threads: 2, Slots: 1000, MinSize: 10, MaxSize: 100, Ops: 50000, Runs: 3, Seed: 1}
}

// LarsonRun is one execution's observables.
type LarsonRun struct {
	WallSeconds float64
	Throughput  float64 // replace ops per simulated second, all threads
	MinorFaults uint64
	ArenaCount  int
	// OOMSkips counts slot refills abandoned because even the emergency
	// cascade could not free enough memory (MemLimit runs only).
	OOMSkips uint64
	// VMStats and AllocStats expose the run's syscall, fault and reuse
	// counters for the above-threshold (mmap-path) variants.
	VMStats    vm.Stats
	AllocStats malloc.Stats
	// Telemetry holds the run's recorder when LarsonConfig.Telemetry is
	// set; nil otherwise.
	Telemetry *telemetry.Recorder
}

// LarsonResult aggregates runs.
type LarsonResult struct {
	Config     LarsonConfig
	Runs       []LarsonRun
	Throughput stats.Summary
}

// RunLarson executes the configured runs.
func RunLarson(cfg LarsonConfig) (LarsonResult, error) {
	if len(cfg.Phases) > 0 {
		cfg.Ops = totalOps(cfg.Phases)
	}
	if cfg.Threads < 1 || cfg.Slots < 1 || cfg.Ops < 1 || cfg.MinSize > cfg.MaxSize {
		return LarsonResult{}, fmt.Errorf("larson: bad config %+v", cfg)
	}
	if cfg.Producers < 0 || cfg.Producers >= cfg.Threads {
		return LarsonResult{}, fmt.Errorf("larson: Producers = %d must be in [0, Threads)", cfg.Producers)
	}
	if cfg.Producers > 0 && len(cfg.Phases) > 0 {
		return LarsonResult{}, fmt.Errorf("larson: Producers and Phases are mutually exclusive")
	}
	if cfg.Rotate && (cfg.Producers > 0 || len(cfg.Phases) > 0) {
		return LarsonResult{}, fmt.Errorf("larson: Rotate excludes Producers and Phases")
	}
	res := LarsonResult{Config: cfg}
	for run := 0; run < cfg.Runs; run++ {
		r, err := runLarsonOnce(cfg, cfg.Seed+uint64(run)*65537)
		if err != nil {
			return LarsonResult{}, fmt.Errorf("larson run %d: %w", run, err)
		}
		res.Runs = append(res.Runs, r)
	}
	var xs []float64
	for _, r := range res.Runs {
		xs = append(xs, r.Throughput)
	}
	res.Throughput = stats.Summarize(xs)
	return res, nil
}

// runLarsonOnce runs every shape through one worker: the slot fill, then
// one replace loop per round of the shape's plan. A flat run is one round of
// Ops, a phased run one round per Phase (each followed by its idle sleep),
// a Rotate run larsonRotateRounds rounds where round r works the slot array
// r workers ahead behind a barrier. Producers run the same loop, dealing
// each displaced object to a consumer's box instead of freeing it.
func runLarsonOnce(cfg LarsonConfig, seed uint64) (LarsonRun, error) {
	w := NewWorld(cfg.Profile.withAlloc(cfg.Allocator, cfg.Costs), seed)
	var out LarsonRun
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		if cfg.MemLimit > 0 {
			as.SetMemLimit(cfg.MemLimit)
		}
		if cfg.Telemetry {
			out.Telemetry = telemetry.NewRecorder(telemetry.Config{ClockMHz: cfg.Profile.ClockMHz})
			malloc.AttachTelemetry(al, out.Telemetry)
		}
		// Offloaded designs spawn their per-node service threads before the
		// clock starts and stop them after the last worker joins but outside
		// the measured wall (the stop join only waits out one epoch).
		svc := malloc.ServiceOf(al)
		svc.Start(main)
		start := main.Now()

		// plan is every worker's round schedule; round r works the slot
		// array hop*r workers ahead.
		plan, hop := cfg.Phases, 0
		if len(plan) == 0 {
			plan = []Phase{{Ops: cfg.Ops}}
		}
		if cfg.Rotate {
			rounds := min(larsonRotateRounds, cfg.Ops)
			plan, hop = make([]Phase, rounds), 1
			for r := range plan {
				plan[r].Ops = cfg.Ops / rounds
			}
			plan[rounds-1].Ops += cfg.Ops % rounds
		}
		// The slot arrays, the Rotate barrier and the consumer boxes are
		// host-side plumbing: the engine resumes one simulated thread at a
		// time, so plain slices and counters are safe.
		arrs := make([]uint64, cfg.Threads)
		arrived := 0 // Rotate: cumulative (worker, round) completions
		var oomSkips uint64
		free := func(t *sim.Thread, p uint64) {
			if cfg.TouchObjects {
				as.Read8(t, p)
			}
			if err := al.Free(t, p); err != nil {
				panic(fmt.Sprintf("larson: free: %v", err))
			}
		}
		// work fills worker i's slot array (which lives in simulated memory
		// like the real benchmark's does) and runs the plan, handing every
		// object a replace displaces to dispose. It returns the array.
		work := func(t *sim.Thread, i int, dispose func(old uint64)) uint64 {
			rng := t.RNG()
			refill := func(arr uint64, s, op int, touch bool) {
				sz := cfg.MinSize + uint32(rng.Intn(int(cfg.MaxSize-cfg.MinSize)+1))
				p, err := al.Malloc(t, sz)
				if err != nil {
					if cfg.MemLimit == 0 || !malloc.IsNoMem(err) {
						panic(fmt.Sprintf("larson: alloc: %v", err))
					}
					oomSkips++
					p = 0
				} else if touch {
					for off := uint64(0); off < uint64(sz); off += vm.PageSize {
						as.Write8(t, p+off, byte(op))
					}
				}
				as.Write32(t, arr+uint64(4*s), uint32(p))
			}
			arr, err := al.Malloc(t, uint32(4*cfg.Slots))
			if err != nil {
				panic(fmt.Sprintf("larson: slot array: %v", err))
			}
			for s := 0; s < cfg.Slots; s++ {
				refill(arr, s, 0, false)
			}
			arrs[i] = arr
			for r, ph := range plan {
				phStart := t.Now()
				cur := arrs[(i+hop*r)%cfg.Threads]
				for op := 0; op < ph.Ops; op++ {
					s := rng.Intn(cfg.Slots)
					// A zero slot is one an out-of-memory refill left
					// empty; there is nothing to hand over.
					if old := uint64(as.Read32(t, cur+uint64(4*s))); old != 0 {
						dispose(old)
					}
					refill(cur, s, op, cfg.TouchObjects)
				}
				if cfg.Rotate {
					// The next round works another worker's array: wait
					// until no worker is still on this one.
					arrived++
					for arrived < (r+1)*cfg.Threads {
						t.Sleep(2000)
					}
				}
				if len(cfg.Phases) > 0 {
					out.Telemetry.Span(t, fmt.Sprintf("phase %d burst", r), "bench", phStart)
				}
				if ph.IdleSeconds > 0 {
					idleStart := t.Now()
					t.Sleep(w.M.Cycles(ph.IdleSeconds))
					out.Telemetry.Span(t, fmt.Sprintf("phase %d idle", r), "bench", idleStart)
				}
			}
			return arr
		}

		var threads []*sim.Thread
		spawn := func(name string, body func(t *sim.Thread)) {
			threads = append(threads, main.Spawn(name, func(t *sim.Thread) {
				al.AttachThread(t)
				defer al.DetachThread(t)
				body(t)
			}))
		}
		if cfg.Producers == 0 {
			for i := 0; i < cfg.Threads; i++ {
				i := i
				spawn(fmt.Sprintf("larson-%d", i), func(t *sim.Thread) {
					work(t, i, func(old uint64) { free(t, old) })
				})
			}
		} else {
			// Producers spawn first, so the scheduler packs them onto the
			// lowest-numbered CPUs (one node when they fit in it),
			// concentrating allocation there while the consumers free from
			// every other node.
			consumers := cfg.Threads - cfg.Producers
			boxes := make([][]uint64, consumers)
			producersDone := 0
			for i := 0; i < cfg.Producers; i++ {
				i := i
				spawn(fmt.Sprintf("larson-prod-%d", i), func(t *sim.Thread) {
					box := 0
					deal := func(p uint64) {
						boxes[box] = append(boxes[box], p)
						box = (box + 1) % consumers
					}
					arr := work(t, i, deal)
					// Hand the surviving slot objects over too, then retire.
					for s := 0; s < cfg.Slots; s++ {
						if p := uint64(as.Read32(t, arr+uint64(4*s))); p != 0 {
							deal(p)
						}
					}
					if err := al.Free(t, arr); err != nil {
						panic(fmt.Sprintf("larson: free slot array: %v", err))
					}
					producersDone++
				})
			}
			for j := 0; j < consumers; j++ {
				j := j
				spawn(fmt.Sprintf("larson-cons-%d", j), func(t *sim.Thread) {
					for len(boxes[j]) > 0 || producersDone < cfg.Producers {
						if len(boxes[j]) == 0 {
							t.Sleep(5000) // poll the mailbox like a condvar wait
							continue
						}
						p := boxes[j][len(boxes[j])-1]
						boxes[j] = boxes[j][:len(boxes[j])-1]
						free(t, p)
						t.MaybeYield()
					}
				})
			}
		}
		for _, th := range threads {
			main.Join(th)
		}
		wall := w.Seconds(main.Now() - start)
		svc.Stop(main)
		workers := cfg.Threads
		if cfg.Producers > 0 {
			workers = cfg.Producers
		}
		out.WallSeconds = wall
		out.Throughput = float64(cfg.Ops*workers) / wall
		out.VMStats = as.Stats()
		out.MinorFaults = out.VMStats.MinorFaults
		out.ArenaCount = len(al.Arenas())
		out.AllocStats = al.Stats()
		out.OOMSkips = oomSkips
	})
	return out, err
}
