// Command repro regenerates every table and figure of Lever & Boreham,
// "malloc() Performance in a Multithreaded Linux Environment" (USENIX 2000),
// on the simulated machines and prints each result table beside the paper's
// claim. It is the one runner of the experiment registry (bench.All): the
// paper's tables and figures, the ablations of its §3 claims (A4-A6) and
// the extensions (D1+).
//
// Usage:
//
//	repro [-scale 0.05] [-seed 1] [-experiment T1] [-json BENCH_T1.json]
//
// -scale multiplies benchmark 1's 10-million-pair loops (results are
// rescaled and annotated); benchmarks 2 and 3 always run at full size.
// -experiment takes an ID in either case. -json, which needs -experiment,
// also writes the result as a ledger record: the table's fields, then the
// Scale and Seed it ran at, so a checked-in BENCH_Dn.json regenerates byte
// for byte from its own ID, Scale and Seed:
//
//	repro -experiment D3 -scale 1 -seed 1 -json BENCH_D3.json
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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"mtmalloc/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction of the paper's 10M benchmark-1 pairs to simulate (1 = full)")
	seed := flag.Uint64("seed", 1, "base random seed")
	exp := flag.String("experiment", "", "run a single experiment by ID, in either case (e.g. T1, F9, A4, d3); empty = all")
	jsonPath := flag.String("json", "", "with -experiment: also write the result as a ledger record to this file")
	flag.Parse()

	list, err := selectExperiments(*exp, *jsonPath)
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
		if *jsonPath != "" {
			if err := writeRecord(*jsonPath, out.Table, opts); err != nil {
				failures++
				fmt.Fprintln(os.Stderr, "repro: writing record:", err)
			}
		}
	})
	if failures > 0 {
		os.Exit(1)
	}
}

// selectExperiments returns the experiment id names, or the whole registry
// when id is empty. A record holds one experiment, so a jsonPath without an
// id is refused.
func selectExperiments(id, jsonPath string) ([]bench.Experiment, error) {
	if id == "" {
		if jsonPath != "" {
			return nil, errors.New("repro: -json writes one experiment's record; name it with -experiment")
		}
		return bench.All(), nil
	}
	e, err := bench.ByID(id)
	if err != nil {
		return nil, err
	}
	return []bench.Experiment{e}, nil
}

// writeRecord writes t to path as a ledger record: the table's fields, then
// the Scale and Seed of o, indented two spaces and ending in a newline.
func writeRecord(path string, t *bench.Table, o bench.Options) error {
	js, err := json.MarshalIndent(struct {
		*bench.Table
		Scale float64
		Seed  uint64
	}{t, o.Scale, o.Seed}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
