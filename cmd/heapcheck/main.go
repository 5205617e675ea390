// Command heapcheck tortures an allocator with a randomized multithreaded
// workload while running the structural integrity checker — the moral
// equivalent of ptmalloc's MALLOC_CHECK_ debugging extension for this
// reproduction.
//
// The memory-pressure modes assert that the heap stays consistent while
// allocations are failing underneath it: -memlimit-ratio first measures the
// unlimited run's peak committed bytes and reruns with the commit limit
// (vm.SetMemLimit) at that fraction of it, and -faultrate injects
// deterministic mmap/sbrk failures. In either mode the workers treat an
// out-of-memory malloc as a skipped operation (the emergency cascade already
// retried it) — every other error, and any invariant break, still fails.
//
// With no -allocator it tortures every kind malloc.Kinds lists, one after
// another, each under a "kind" header line.
//
// -telemetry DIR records allocator telemetry: each seed prints its tier
// attribution and top-3 latency classes, and writes its report and Chrome
// trace to DIR/<kind>-seed<N>.json and DIR/<kind>-seed<N>.trace.json,
// refusing an export whose tier cycles do not sum to the op totals:
//
//	mkdir -p /tmp/telemetry && heapcheck -seeds 2 -ops 5000 -telemetry /tmp/telemetry
//
// Exit status is non-zero if any invariant breaks, a flag is out of range
// or an export fails its checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	memLimitRatio := flag.Float64("memlimit-ratio", 0, "commit limit as a fraction of the unlimited run's peak committed bytes (0 off; measures peak with a first pass per seed)")
	faultRate := flag.Float64("faultrate", 0, "probability of an injected mmap/sbrk failure per growth attempt (0 off; deterministic per seed)")
	telemetryDir := flag.String("telemetry", "", "record allocator telemetry: print each seed's tier attribution and top-3 latency classes, and write its report and Chrome trace to <kind>-seed<N>.json and <kind>-seed<N>.trace.json in this existing directory")
	flag.Parse()
	if err := checkCounts(counts{
		seeds: *seeds, threads: *threads, ops: *ops, maxSize: *maxSize,
		checkEvery: *checkEvery, nodes: *nodes, scavenge: *scavenge,
		faultRate: *faultRate, memLimitRatio: *memLimitRatio,
	}); err != nil {
		fatal(err)
	}
	if err := checkDir(*telemetryDir); err != nil {
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
				faultRate: *faultRate, seed: uint64(seed),
				telemetry: *telemetryDir != "",
			}
			if *memLimitRatio > 0 {
				base := cfg
				base.faultRate = 0
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
				if err := writeTelemetry(filepath.Join(*telemetryDir, fmt.Sprintf("%s-seed%d", kind, seed)), r.telemetry); err != nil {
					fatal(fmt.Errorf("%s seed %d: %w", kind, seed, err))
				}
			}
		}
	}
	fmt.Println("heapcheck: all invariants held")
}

// counts is heapcheck's numeric flags.
type counts struct {
	seeds, threads, ops, maxSize, checkEvery, nodes int
	scavenge                                        int64
	faultRate, memLimitRatio                        float64
}

// checkCounts refuses a numeric flag out of range, naming it: a count below
// 1 (with no seeds, threads or ops nothing is tortured, and sizes are drawn
// from 1 to -maxsize), a period, interval or node count below 0, a
// -faultrate outside [0, 1] and a -memlimit-ratio below 0, NaN refused by
// both and an infinite ratio too. Each of these would otherwise run a
// plainer torture than the one asked for and pass.
func checkCounts(c counts) error {
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"seeds", int64(c.seeds), 1}, {"threads", int64(c.threads), 1},
		{"ops", int64(c.ops), 1}, {"maxsize", int64(c.maxSize), 1},
		{"check-every", int64(c.checkEvery), 0}, {"nodes", int64(c.nodes), 0},
		{"scavenge", c.scavenge, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %d is below %d", f.name, f.v, f.min)
		}
	}
	if !(c.faultRate >= 0 && c.faultRate <= 1) {
		return fmt.Errorf("-faultrate %v is outside [0, 1]", c.faultRate)
	}
	if !(c.memLimitRatio >= 0 && c.memLimitRatio <= math.MaxFloat64) {
		return fmt.Errorf("-memlimit-ratio %v is not a finite number at or above 0", c.memLimitRatio)
	}
	return nil
}

// checkDir refuses a -telemetry that is set but names no existing
// directory.
func checkDir(dir string) error {
	if dir == "" {
		return nil
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return fmt.Errorf("-telemetry %s is not an existing directory", dir)
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

// writeTelemetry writes rec's report to base.json and its Chrome trace to
// base.trace.json, refusing a malformed export: per-tier cycles must sum
// to the op totals, no latency row's p99 may sit below its p50, the time
// series must carry the fragmentation gauge, and both files must parse. A
// run too short to sample an op span writes a valid trace with no events.
// Catching a malformed export here beats catching it in a trace viewer.
func writeTelemetry(base string, rec *telemetry.Recorder) error {
	rep := rec.Report()
	var mallocCycles, freeCycles, mailboxCycles uint64
	for _, ts := range rep.Tiers {
		switch ts.Op {
		case "malloc":
			mallocCycles += ts.Cycles
		case "free":
			freeCycles += ts.Cycles
		case "mailbox":
			mailboxCycles += ts.Cycles
		default:
			return fmt.Errorf("telemetry: tier attribution carries unknown op kind %q", ts.Op)
		}
	}
	if mallocCycles != rep.TotalMallocCycles || freeCycles != rep.TotalFreeCycles || mailboxCycles != rep.TotalMailboxCycles {
		return fmt.Errorf("telemetry: tier attribution (%d/%d/%d cycles) does not sum to the op totals (%d/%d/%d)",
			mallocCycles, freeCycles, mailboxCycles, rep.TotalMallocCycles, rep.TotalFreeCycles, rep.TotalMailboxCycles)
	}
	for _, cl := range rep.Latency {
		if cl.P99 < cl.P50 {
			return fmt.Errorf("telemetry: %s class %d has p99 %d below p50 %d cycles", cl.Op, cl.SizeClass, cl.P99, cl.P50)
		}
	}
	if len(rep.Samples) == 0 {
		return fmt.Errorf("telemetry: empty time series")
	}
	for _, s := range rep.Samples {
		if len(s.Arenas) == 0 {
			return fmt.Errorf("telemetry: sample at %d cycles lacks the per-arena fragmentation gauge", s.Time)
		}
	}
	rj, err := rec.ReportJSON()
	if err != nil {
		return err
	}
	if !json.Valid(rj) {
		return fmt.Errorf("telemetry: report is not valid JSON")
	}
	if err := os.WriteFile(base+".json", rj, 0o644); err != nil {
		return err
	}
	tj, err := rec.TraceJSON()
	if err != nil {
		return err
	}
	if !json.Valid(tj) {
		return fmt.Errorf("telemetry: trace is not valid JSON")
	}
	return os.WriteFile(base+".trace.json", tj, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heapcheck:", err)
	os.Exit(1)
}
