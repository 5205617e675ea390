// Command heapcheck tortures an allocator with a randomized multithreaded
// workload while running the structural integrity checker — the moral
// equivalent of ptmalloc's MALLOC_CHECK_ debugging extension for this
// reproduction.
//
// The memory-pressure modes assert that the heap stays consistent while
// allocations are failing underneath it: -memlimit caps the committed bytes
// (vm.SetMemLimit), -memlimit-ratio first measures the unlimited run's peak
// and reruns at that fraction of it, and -faultrate injects deterministic
// mmap/sbrk failures. In any of those modes the workers treat an
// out-of-memory malloc as a skipped operation (the emergency cascade already
// retried it) — every other error, and any invariant break, still fails.
//
// With no -allocator it tortures every kind malloc.Kinds lists, one after
// another, each under a "kind" header line.
//
// Exit status is non-zero if any invariant breaks.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/cache"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/xrand"
)

func main() {
	profileName := flag.String("profile", "quad-xeon-500", "machine profile")
	allocator := flag.String("allocator", "", fmt.Sprint("allocator kind, one of ", malloc.Kinds(), " (empty: every kind in turn)"))
	threads := flag.Int("threads", 4, "worker threads")
	ops := flag.Int("ops", 20000, "operations per thread")
	seeds := flag.Int("seeds", 5, "number of seeds to torture")
	maxSize := flag.Int("maxsize", 4000, "maximum request size")
	checkEvery := flag.Int("check-every", 1000, "structural check period (ops)")
	scavenge := flag.Int64("scavenge", 0, "scavenger epoch interval in cycles (0 off): tortures reclamation against the churn")
	binnedRelease := flag.Bool("binned-release", false, "enable the PageHeap-style binned-chunk page release with no resident pad (implies -scavenge 50000 when -scavenge is 0): tortures interior releases against the churn")
	nodes := flag.Int("nodes", 0, "override the profile's NUMA node count (0 keeps it): tortures node-sharded placement and cross-node free routing")
	lineAware := flag.Bool("lineaware", false, "align the heap to the cache line, which turns on line-aware placement (line-quantized carving + span coloring): tortures the no-shared-line invariant Check() enforces against the churn")
	memLimit := flag.Uint64("memlimit", 0, "absolute commit limit in bytes (0 off): tortures the emergency reclamation cascade")
	memLimitRatio := flag.Float64("memlimit-ratio", 0, "commit limit as a fraction of the unlimited run's peak committed bytes (0 off; measures peak with a first pass per seed)")
	faultRate := flag.Float64("faultrate", 0, "probability of an injected mmap/sbrk failure per growth attempt (0 off; deterministic per seed)")
	telemetryOn := flag.Bool("telemetry", false, "record allocator telemetry and print per-seed tier attribution and the top-3 latency classes")
	flag.Parse()
	if err := checkCounts(*seeds, *threads, *ops, *maxSize); err != nil {
		fatal(err)
	}
	if *binnedRelease && *scavenge == 0 {
		*scavenge = 50000
	}
	kinds := malloc.Kinds()
	if *allocator != "" {
		kind, err := malloc.ParseKind(*allocator)
		if err != nil {
			fatal(err)
		}
		kinds = []malloc.Kind{kind}
	}

	prof, err := bench.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	if *nodes > 0 {
		prof.Nodes = *nodes
		if prof.SimCosts.RemoteAccess <= 1 {
			prof.SimCosts.RemoteAccess = 1.6
		}
	}
	if *lineAware {
		prof.HeapParams.Align = cache.LineSize
	}
	for _, kind := range kinds {
		if len(kinds) > 1 {
			fmt.Printf("kind %s\n", kind)
		}
		for seed := 1; seed <= *seeds; seed++ {
			cfg := tortureConfig{
				prof: prof, kind: kind,
				threads: *threads, ops: *ops, maxSize: *maxSize, checkEvery: *checkEvery,
				scavenge: *scavenge, binnedRelease: *binnedRelease,
				memLimit: *memLimit, faultRate: *faultRate, seed: uint64(seed),
				telemetry: *telemetryOn,
			}
			if *memLimitRatio > 0 {
				base := cfg
				base.memLimit, base.faultRate = 0, 0
				r, err := torture(base)
				if err != nil {
					fatal(fmt.Errorf("%s seed %d (measuring pass): %w", kind, seed, err))
				}
				cfg.memLimit = uint64(*memLimitRatio * float64(r.peakCommitted))
			}
			r, err := torture(cfg)
			if err != nil {
				fatal(fmt.Errorf("%s seed %d: %w", kind, seed, err))
			}
			if cfg.pressured() {
				fmt.Printf("seed %d: ok (peak %d KB, limit %d KB, %d emergency passes, %d retries, %d fails, %d skipped ops)\n",
					seed, r.peakCommitted/1024, cfg.memLimit/1024, r.emergencies, r.retries, r.fails, r.skips)
			} else {
				fmt.Printf("seed %d: ok\n", seed)
			}
			if r.telemetry != nil {
				printTelemetry(r.telemetry)
			}
		}
	}
	fmt.Println("heapcheck: all invariants held")
}

// checkCounts refuses a count flag below 1: with no seeds, threads or ops
// nothing is tortured, and sizes are drawn from 1 to -maxsize.
func checkCounts(seeds, threads, ops, maxSize int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"seeds", seeds}, {"threads", threads}, {"ops", ops}, {"maxsize", maxSize}} {
		if f.v < 1 {
			return fmt.Errorf("-%s %d is below 1", f.name, f.v)
		}
	}
	return nil
}

type tortureConfig struct {
	prof                              bench.Profile
	kind                              malloc.Kind
	threads, ops, maxSize, checkEvery int
	scavenge                          int64
	binnedRelease                     bool
	memLimit                          uint64
	faultRate                         float64
	seed                              uint64
	telemetry                         bool
}

// pressured reports whether allocations are expected to fail: the workers
// then tolerate out-of-memory mallocs as skipped operations.
func (c tortureConfig) pressured() bool { return c.memLimit > 0 || c.faultRate > 0 }

type tortureResult struct {
	peakCommitted                      uint64
	emergencies, retries, fails, skips uint64
	telemetry                          *telemetry.Recorder
}

// printTelemetry summarizes one seed's recorder: where the cycles went,
// tier by tier, and which size classes dominated the op mix.
func printTelemetry(rec *telemetry.Recorder) {
	rep := rec.Report()
	fmt.Printf("  telemetry: %d mallocs (%d cycles), %d frees (%d cycles)\n",
		rep.MallocOps, rep.TotalMallocCycles, rep.FreeOps, rep.TotalFreeCycles)
	for _, ts := range rep.Tiers {
		fmt.Printf("    tier %-9s %-6s %8d ops %12d cycles\n", ts.Tier, ts.Op, ts.Ops, ts.Cycles)
	}
	// Top-3 latency classes by op count, with their percentile spread.
	top := make([]telemetry.ClassLatency, len(rep.Latency))
	copy(top, rep.Latency)
	sort.SliceStable(top, func(i, j int) bool { return top[i].Count > top[j].Count })
	if len(top) > 3 {
		top = top[:3]
	}
	for _, cl := range top {
		fmt.Printf("    class %-6d %-6s %8d ops  p50 %6d  p99 %6d  p99.9 %6d cycles\n",
			cl.SizeClass, cl.Op, cl.Count, cl.P50, cl.P99, cl.P999)
	}
}

func torture(cfg tortureConfig) (tortureResult, error) {
	opts := []bench.WorldOption{bench.WithAllocator(cfg.kind)}
	if cfg.scavenge > 0 {
		// Designs without a scavenger simply ignore the knobs, so one flag
		// set tortures all kinds uniformly.
		costs := cfg.prof.AllocCosts
		costs.ScavengeInterval = cfg.scavenge
		if cfg.binnedRelease {
			// Padless and floor-at-one-page: maximum release pressure, so
			// every released interior the churn re-carves is checked.
			costs.ScavengeMinBinBytes = 4096
			costs.ScavengeBinPad = -1
		}
		opts = append(opts, bench.WithAllocCosts(costs))
	}
	w := bench.NewWorld(cfg.prof, cfg.seed, opts...)
	var res tortureResult
	var checkErr error
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		if cfg.telemetry {
			res.telemetry = telemetry.NewRecorder(telemetry.Config{ClockMHz: cfg.prof.ClockMHz})
			malloc.AttachTelemetry(al, res.telemetry)
		}
		if cfg.memLimit > 0 {
			as.SetMemLimit(cfg.memLimit)
		}
		svc := malloc.ServiceOf(al)
		svc.Start(main)
		as.SetFaultInjection(cfg.faultRate, cfg.seed)
		type obj struct {
			p     uint64
			n     uint32
			stamp byte
		}
		var shared []obj // cross-thread mailbox
		var ws []*sim.Thread
		for i := 0; i < cfg.threads; i++ {
			ws = append(ws, main.Spawn(fmt.Sprintf("torture-%d", i), func(t *sim.Thread) {
				al.AttachThread(t)
				defer al.DetachThread(t)
				r := xrand.New(cfg.seed, uint64(t.ID()))
				var local []obj
				for j := 0; j < cfg.ops && checkErr == nil; j++ {
					switch {
					case len(local) > 0 && r.Intn(3) == 0:
						k := r.Intn(len(local))
						o := local[k]
						if as.Read8(t, o.p) != o.stamp || as.Read8(t, o.p+uint64(o.n)-1) != o.stamp {
							checkErr = fmt.Errorf("stamp corrupted at 0x%x size %d", o.p, o.n)
							return
						}
						if err := al.Free(t, o.p); err != nil {
							checkErr = err
							return
						}
						local = append(local[:k], local[k+1:]...)
					case len(shared) > 0 && r.Intn(4) == 0:
						o := shared[len(shared)-1]
						shared = shared[:len(shared)-1]
						if err := al.Free(t, o.p); err != nil {
							checkErr = err
							return
						}
					default:
						n := uint32(1 + r.Intn(cfg.maxSize))
						p, err := al.Malloc(t, n)
						if err != nil {
							if cfg.pressured() && malloc.IsNoMem(err) {
								// The emergency cascade already did its
								// bounded retries; the op is skipped, and the
								// heap must still pass every check below.
								res.skips++
								break
							}
							checkErr = err
							return
						}
						stamp := byte(r.Intn(256))
						as.Write8(t, p, stamp)
						as.Write8(t, p+uint64(n)-1, stamp)
						if r.Intn(2) == 0 {
							local = append(local, obj{p, n, stamp})
						} else {
							shared = append(shared, obj{p, n, stamp})
						}
					}
					if cfg.checkEvery > 0 && j%cfg.checkEvery == 0 {
						if err := al.Check(); err != nil {
							checkErr = err
							return
						}
					}
				}
				for _, o := range local {
					if err := al.Free(t, o.p); err != nil {
						checkErr = err
						return
					}
				}
			}))
		}
		for _, x := range ws {
			main.Join(x)
		}
		// Stop drains every mailbox back through the depots before the
		// final structural check and the malloc/free balance below.
		svc.Stop(main)
		for _, o := range shared {
			if err := al.Free(main, o.p); err != nil {
				checkErr = err
				return
			}
		}
		if checkErr == nil {
			checkErr = al.Check()
		}
		st := al.Stats()
		res.peakCommitted = as.Stats().PeakCommitted
		res.emergencies = st.EmergencyScavenges
		res.retries = st.OOMRetries
		res.fails = st.OOMFails
		if checkErr == nil && st.Heap.Mallocs != st.Heap.Frees {
			checkErr = fmt.Errorf("leak: %d mallocs vs %d frees", st.Heap.Mallocs, st.Heap.Frees)
		}
	})
	if err != nil {
		return res, err
	}
	return res, checkErr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heapcheck:", err)
	os.Exit(1)
}
