// Command repro regenerates every table and figure of Lever & Boreham,
// "malloc() Performance in a Multithreaded Linux Environment" (USENIX 2000),
// on the simulated machines and prints each result table beside the paper's
// claim.
//
// Usage:
//
//	repro [-scale 0.05] [-seed 1] [-experiment T1] [-ablations] [-md results.md]
//
// -scale multiplies benchmark 1's 10-million-pair loops (results are
// rescaled and annotated); benchmarks 2 and 3 always run at full size. -md
// also writes the run as one markdown report to the named file: the command
// line that generated it, a preamble on how to read the numbers, and each
// experiment's paper claim and result table.
//
// The experiments run concurrently on up to GOMAXPROCS goroutines and print
// in list order; everything but the "(N s wall)" lines is what a
// sequential run prints.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mtmalloc/internal/bench"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction of the paper's 10M benchmark-1 pairs to simulate (1 = full)")
	seed := flag.Uint64("seed", 1, "base random seed")
	exp := flag.String("experiment", "", "run a single experiment or ablation by ID (e.g. T1, F9, A4); empty = all")
	ablations := flag.Bool("ablations", false, "also run the ablation studies A1 and A4-A6")
	mdPath := flag.String("md", "", "also write the results as a markdown report to this file")
	flag.Parse()

	opts := bench.Options{Scale: *scale, Seed: *seed}

	var list []bench.Experiment
	if *exp != "" {
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		list = []bench.Experiment{e}
	} else {
		list = bench.All()
	}
	if *ablations {
		list = append(list, bench.Ablations()...)
	}

	var md strings.Builder
	md.WriteString("# EXPERIMENTS — paper vs. reproduction\n\n")
	md.WriteString("Generated by `go run ./cmd/repro")
	fmt.Fprintf(&md, " -scale %g -seed %d", *scale, *seed)
	if *ablations {
		md.WriteString(" -ablations")
	}
	md.WriteString("`.\n\n")
	md.WriteString(preamble)
	md.WriteString("\n")

	failures := 0
	bench.RunExperiments(list, opts, func(e bench.Experiment, out bench.Outcome) {
		fmt.Printf("== %s: %s\n   paper: %s\n", e.ID, e.Title, e.PaperClaim)
		if out.Err != nil {
			failures++
			fmt.Printf("   ERROR: %v\n\n", out.Err)
			fmt.Fprintf(&md, "### %s — FAILED: %v\n\n", e.ID, out.Err)
			return
		}
		fmt.Println(indent(out.Table.Text(), "   "))
		fmt.Printf("   (%.1fs wall)\n\n", out.Wall.Seconds())
		fmt.Fprintf(&md, "**Paper claim:** %s\n\n", e.PaperClaim)
		md.WriteString(out.Table.Markdown())
		md.WriteString("\n")
	})

	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "writing markdown:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *mdPath)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}

const preamble = `All numbers come from the deterministic simulation described in
ARCHITECTURE.md: the machines are discrete-event models calibrated only
against the paper's single-thread scalars; every multithreaded number is a
prediction. "delta" compares against the paper's published value (tables)
or a value read off the published plot (figures, approximate by nature).
Shapes — who wins, by what factor, where the knees are — are the
reproduction target, not absolute equality.
`
