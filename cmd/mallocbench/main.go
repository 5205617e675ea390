// Command mallocbench runs one of the paper's three microbenchmarks, or the
// Larson server workload, in one configuration and prints the result as a
// text table. The experiment registry (the paper's tables and figures, the
// ablations and the extensions whose BENCH_Dn.json records are checked in)
// runs through cmd/repro -experiment.
//
// Examples:
//
//	mallocbench -bench 1 -profile quad-xeon-500 -threads 4 -size 8192 -pairs 1000000
//	mallocbench -bench 1 -profile sun-ultra-2x400 -threads 2 -processes
//	mallocbench -bench 2 -profile k6-400 -threads 3 -rounds 8 -runs 5
//	mallocbench -bench 3 -profile quad-xeon-500 -threads 4 -size 24 -aligned
//	mallocbench -bench larson -threads 4 -allocator perthread
//	mallocbench -bench larson -threads 4 -runs 1 -telemetry telemetry.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

// flags is the command line. Each -bench reads only some of it.
var (
	flags         = flag.NewFlagSet("mallocbench", flag.ExitOnError)
	which         = flags.String("bench", "1", "benchmark: 1, 2, 3 or larson (registry experiments such as D3 run through repro -experiment)")
	profileName   = flags.String("profile", "quad-xeon-500", "machine profile")
	threads       = flags.Int("threads", 2, "worker threads")
	processes     = flags.Bool("processes", false, "benchmark 1: one process per worker")
	size          = flags.Uint("size", 512, "benchmarks 1-3: request size in bytes")
	pairs         = flags.Int("pairs", 1000000, "benchmark 1: malloc/free pairs per thread")
	rounds        = flags.Int("rounds", 4, "benchmark 2: thread-recreation rounds")
	objects       = flags.Int("objects", 10000, "benchmark 2: objects per chain")
	writes        = flags.Int64("writes", 100000000, "benchmark 3: writes per thread")
	aligned       = flags.Bool("aligned", false, "benchmark 3: cache-line aligned allocator")
	runs          = flags.Int("runs", 3, "repetitions")
	seed          = flags.Uint64("seed", 1, "base seed")
	allocator     = flags.String("allocator", "", fmt.Sprint("override the profile's allocator kind, one of ", malloc.Kinds()))
	telemetryPath = flags.String("telemetry", "", "larson: record telemetry and write run 0's report JSON here plus a Chrome trace-event file next to it (<name>.trace.json); adds latency percentile columns")
)

// benchFlags names the flags each -bench reads besides -bench. Any other
// flag set on the command line would be silently ignored, so it is refused.
var benchFlags = map[string][]string{
	"1":      {"profile", "allocator", "threads", "processes", "size", "pairs", "runs", "seed"},
	"2":      {"profile", "allocator", "threads", "rounds", "objects", "size", "runs", "seed"},
	"3":      {"profile", "allocator", "threads", "size", "writes", "aligned", "runs", "seed"},
	"larson": {"profile", "allocator", "threads", "runs", "seed", "telemetry"},
}

// unread returns, as -name, the flags of set other than -bench that reads
// does not name.
func unread(reads, set []string) []string {
	var out []string
	for _, f := range set {
		if f != "bench" && !slices.Contains(reads, f) {
			out = append(out, "-"+f)
		}
	}
	return out
}

func main() {
	flags.Parse(os.Args[1:])
	reads, ok := benchFlags[*which]
	if !ok {
		fatal(fmt.Errorf("unknown -bench %q (want 1, 2, 3 or larson; run a registry experiment such as D3 with repro -experiment)", *which))
	}
	var set []string
	flags.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if bad := unread(reads, set); len(bad) > 0 {
		fatal(fmt.Errorf("-bench %s does not read %s (it reads -%s)", *which, strings.Join(bad, ", "), strings.Join(reads, ", -")))
	}

	prof, err := bench.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}
	if *allocator != "" {
		if prof.Allocator, err = malloc.ParseKind(*allocator); err != nil {
			fatal(err)
		}
	}

	var tab *bench.Table
	switch *which {
	case "1":
		res, err := bench.RunBench1(bench.B1Config{
			Profile: prof, Threads: *threads, Processes: *processes,
			Size: uint32(*size), Pairs: *pairs, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		tab = &bench.Table{ID: "bench1", Title: fmt.Sprintf("%d threads x %d pairs of %dB on %s", *threads, *pairs, *size, prof.Name),
			Columns: []string{"thread", "mean(s)", "stddev", "min", "max"}}
		for i, s := range res.PerThread {
			tab.AddRow(i+1, s.Mean, s.Stddev, s.Min, s.Max)
		}
		tab.Note("arenas at end of run 0: %d", res.Runs[0].AllocStats.ArenaCount)
	case "2":
		res, err := bench.RunBench2(bench.B2Config{
			Profile: prof, Threads: *threads, Rounds: *rounds, Objects: *objects,
			Size: uint32(*size), Runs: *runs, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		tab = &bench.Table{ID: "bench2", Title: fmt.Sprintf("%d threads x %d rounds, %d objects of %dB on %s", *threads, *rounds, *objects, *size, prof.Name),
			Columns: []string{"run", "minor faults", "arenas", "peak heap(KB)"}}
		for i, r := range res.Runs {
			tab.AddRow(i+1, r.VMStats.MinorFaults, r.AllocStats.ArenaCount, r.VMStats.PeakMapped/1024)
		}
		tab.Note("predictor mpf = %.1f; measured min %.0f avg %.1f max %.0f",
			res.Predicted, res.Faults.Min, res.Faults.Mean, res.Faults.Max)
	case "3":
		res, err := bench.RunBench3(bench.B3Config{
			Profile: prof, Threads: *threads, Size: uint32(*size), Writes: *writes,
			Aligned: *aligned, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		tab = &bench.Table{ID: "bench3", Title: fmt.Sprintf("%d threads writing %dB objects, aligned=%v on %s", *threads, *size, *aligned, prof.Name),
			Columns: []string{"run", "elapsed(s)", "shared lines"}}
		for i, r := range res.Runs {
			tab.AddRow(i+1, r.WallSeconds, r.SharedLines)
		}
	case "larson":
		cfg := bench.DefaultLarson(prof)
		cfg.Threads = *threads
		cfg.Runs = *runs
		cfg.Seed = *seed
		cfg.Telemetry = *telemetryPath != ""
		res, err := bench.RunLarson(cfg)
		if err != nil {
			fatal(err)
		}
		tab = &bench.Table{ID: "larson", Title: fmt.Sprintf("Larson workload, %d threads on %s", *threads, prof.Name),
			Columns: []string{"run", "throughput(ops/s)", "wall(s)", "faults", "arenas"}}
		if *telemetryPath != "" {
			tab.Columns = append(tab.Columns, "malloc p50(cyc)", "p99(cyc)", "p99.9(cyc)")
		}
		for i, r := range res.Runs {
			if *telemetryPath != "" {
				h := r.Telemetry.Hist(telemetry.OpMalloc)
				tab.AddRow(i+1, r.Throughput, r.WallSeconds, r.VMStats.MinorFaults, r.AllocStats.ArenaCount,
					h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999))
			} else {
				tab.AddRow(i+1, r.Throughput, r.WallSeconds, r.VMStats.MinorFaults, r.AllocStats.ArenaCount)
			}
		}
		if *telemetryPath != "" {
			if err := writeTelemetry(*telemetryPath, res.Runs[0].Telemetry); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Print(tab.Text())
}

// writeTelemetry writes rec's report to path and its Chrome trace to
// <path minus .json>.trace.json, then re-validates what it wrote: the files
// must parse, per-tier cycles must sum to the op totals, and the time
// series must carry the fragmentation gauge. Catching a malformed export
// here beats catching it in a trace viewer.
func writeTelemetry(path string, rec *telemetry.Recorder) error {
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
	if err := os.WriteFile(path, rj, 0o644); err != nil {
		return err
	}
	tracePath := strings.TrimSuffix(path, ".json") + ".trace.json"
	tj, err := rec.TraceJSON()
	if err != nil {
		return err
	}
	if !json.Valid(tj) {
		return fmt.Errorf("telemetry: trace is not valid JSON")
	}
	if err := os.WriteFile(tracePath, tj, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path, "and", tracePath)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mallocbench:", err)
	os.Exit(1)
}
