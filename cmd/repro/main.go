// Command repro regenerates every table and figure of Lever & Boreham,
// "malloc() Performance in a Multithreaded Linux Environment" (USENIX 2000),
// on the simulated machines and prints each result table beside the paper's
// claim. It is the one runner of the experiment registry (bench.All): the
// paper's tables and figures, the ablations of its §3 claims (A4-A6) and
// the extensions (D1+).
//
// Usage:
//
//	repro [-scale 0.05] [-seed 1] [-experiment T1] [-json DIR]
//
// -scale, in (0, 1], multiplies benchmark 1's 10-million-pair loops
// (results are rescaled and annotated) and nothing else: every other
// workload always runs at full size. -experiment takes an ID in either
// case. -json names an existing directory and also writes each
// experiment's result there as a ledger record, DIR/BENCH_<ID>.json: the
// table's fields, then the Scale and Seed it ran at, so a checked-in
// BENCH_Dn.json regenerates byte for byte from its own ID, Scale and Seed:
//
//	repro -experiment D3 -scale 0.01 -json .
//
// All numbers come from the deterministic simulation described in
// ARCHITECTURE.md: the machines are discrete-event models calibrated only
// against the paper's single-thread scalars; every multithreaded number is
// a prediction. "delta" compares against the paper's published value
// (tables) or a value read off the published plot (figures, approximate by
// nature). Shapes — who wins, by what factor, where the knees are — are the
// reproduction target, not absolute equality.
//
// The experiments run concurrently on up to GOMAXPROCS goroutines and print
// in list order; everything but the "(N s wall)" lines is what a
// sequential run prints.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mtmalloc/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction, in (0, 1], of the paper's 10M benchmark-1 pairs to simulate (1 = full)")
	seed := flag.Uint64("seed", 1, "base random seed")
	exp := flag.String("experiment", "", "run a single experiment by ID, in either case (e.g. T1, F9, A4, d3); empty = all")
	jsonDir := flag.String("json", "", "also write each experiment's ledger record to BENCH_<ID>.json in this existing directory")
	flag.Parse()

	if err := checkFlags(*scale, *jsonDir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	list, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := bench.Options{Scale: *scale, Seed: *seed}

	failures := 0
	bench.RunExperiments(list, opts, func(e bench.Experiment, out bench.Outcome) {
		fmt.Printf("== %s: %s\n   paper: %s\n", e.ID, e.Title, e.PaperClaim)
		if out.Err != nil {
			failures++
			fmt.Printf("   ERROR: %v\n\n", out.Err)
			return
		}
		fmt.Println(indent(out.Table.Text(), "   "))
		fmt.Printf("   (%.1fs wall)\n\n", out.Wall.Seconds())
		if *jsonDir != "" {
			if err := writeRecord(*jsonDir, out.Table, opts); err != nil {
				failures++
				fmt.Fprintln(os.Stderr, "repro: writing record:", err)
			}
		}
	})
	if failures > 0 {
		os.Exit(1)
	}
}

// checkFlags refuses, before any experiment runs, a scale outside (0, 1]
// (NaN included) and a -json that names no existing directory.
func checkFlags(scale float64, jsonDir string) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("repro: -scale %v is outside (0, 1]", scale)
	}
	if jsonDir != "" {
		if fi, err := os.Stat(jsonDir); err != nil || !fi.IsDir() {
			return fmt.Errorf("repro: -json %s is not an existing directory", jsonDir)
		}
	}
	return nil
}

// selectExperiments returns the experiment id names, or the whole registry
// when id is empty.
func selectExperiments(id string) ([]bench.Experiment, error) {
	if id == "" {
		return bench.All(), nil
	}
	e, err := bench.ByID(id)
	if err != nil {
		return nil, err
	}
	return []bench.Experiment{e}, nil
}

// writeRecord writes t to dir/BENCH_<ID>.json as a ledger record: the
// table's fields, then the Scale and Seed of o, indented two spaces and
// ending in a newline.
func writeRecord(dir string, t *bench.Table, o bench.Options) error {
	js, err := json.MarshalIndent(struct {
		*bench.Table
		Scale float64
		Seed  uint64
	}{t, o.Scale, o.Seed}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+t.ID+".json"), append(js, '\n'), 0o644)
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
