// Command mallocbench runs one microbenchmark configuration and prints the
// result as text or CSV — the lab tool behind the tables in cmd/repro.
//
// Examples:
//
//	mallocbench -bench 1 -profile quad-xeon-500 -threads 4 -size 8192 -pairs 1000000
//	mallocbench -bench 1 -profile sun-ultra-2x400 -threads 2 -processes
//	mallocbench -bench 2 -profile k6-400 -threads 3 -rounds 8 -runs 5
//	mallocbench -bench 3 -profile quad-xeon-500 -threads 4 -size 24 -aligned
//	mallocbench -bench larson -threads 4 -allocator perthread
//	mallocbench -bench d1 -scale 0.01 -json BENCH_D1.json
//	mallocbench -bench d2 -scale 0.01 -json BENCH_D2.json
//	mallocbench -bench d3 -scale 1 -json BENCH_D3.json
//	mallocbench -bench d4 -scale 1 -json BENCH_D4.json
//	mallocbench -bench d5 -scale 1 -json BENCH_D5.json
//	mallocbench -bench d6 -scale 1 -json BENCH_D6.json
//	mallocbench -bench d9 -scale 1 -json BENCH_D9.json
//	mallocbench -bench d10 -scale 1 -json BENCH_D10.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

func main() {
	which := flag.String("bench", "1", "benchmark: 1, 2, 3, larson, or an experiment ID of cmd/repro's registry: d1 (design comparison), d2 (mid-tier ablation), d3 (footprint phase-shift), d4 (NUMA locality), d5 (contention scaling), d6 (memory-pressure degradation), d9 (line-aware placement), d10 (service-thread offload), ...")
	profileName := flag.String("profile", "quad-xeon-500", "machine profile")
	threads := flag.Int("threads", 2, "worker threads")
	processes := flag.Bool("processes", false, "benchmark 1: one process per worker")
	size := flag.Uint("size", 512, "request size in bytes")
	pairs := flag.Int("pairs", 1000000, "benchmark 1: malloc/free pairs per thread")
	rounds := flag.Int("rounds", 4, "benchmark 2: thread-recreation rounds")
	objects := flag.Int("objects", 10000, "benchmark 2: objects per chain")
	writes := flag.Int64("writes", 100000000, "benchmark 3: writes per thread")
	aligned := flag.Bool("aligned", false, "benchmark 3: cache-line aligned allocator")
	runs := flag.Int("runs", 3, "repetitions")
	seed := flag.Uint64("seed", 1, "base seed")
	allocator := flag.String("allocator", "", fmt.Sprint("override the profile's allocator kind, one of ", malloc.Kinds()))
	scale := flag.Float64("scale", 0.02, "experiments: workload scale factor (d2: fraction of the 10M benchmark-1 pairs)")
	jsonPath := flag.String("json", "", "also write the result table as JSON to this file")
	telemetryPath := flag.String("telemetry", "", "larson: record telemetry and write run 0's report JSON here plus a Chrome trace-event file next to it (<name>.trace.json); adds latency percentile columns")
	csv := flag.Bool("csv", false, "CSV output")
	flag.Parse()
	if *telemetryPath != "" && *which != "larson" {
		fatal(fmt.Errorf("-telemetry is only wired into -bench larson (got -bench %q)", *which))
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
	var record any // what -json writes; the bare table unless set below
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
	default:
		// Every other name is an experiment of the registry cmd/repro runs
		// (d1 ... d10 are the extensions whose records are checked in).
		e, err := bench.ByID(strings.ToUpper(*which))
		if err != nil {
			fatal(fmt.Errorf("unknown -bench %q (want 1, 2, 3, larson or an experiment ID such as d2)", *which))
		}
		// The experiment runs its own configuration: a workload flag would
		// be silently ignored, so it is refused.
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "bench", "scale", "seed", "json", "csv":
			default:
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fatal(fmt.Errorf("-bench %s runs its own configuration, so %s would be ignored (only -scale, -seed, -json and -csv apply)", *which, strings.Join(ignored, ", ")))
		}
		tab, err = e.Run(bench.Options{Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		// The record carries the options it ran at, so a checked-in
		// BENCH_Dn.json regenerates from its own contents.
		record = struct {
			*bench.Table
			Scale float64
			Seed  uint64
		}{tab, *scale, *seed}
	}

	if *jsonPath != "" {
		if record == nil {
			record = tab
		}
		js, err := json.MarshalIndent(record, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(js, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", *jsonPath)
	}
	if *csv {
		fmt.Print(tab.CSV())
	} else {
		fmt.Print(tab.Text())
	}
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
