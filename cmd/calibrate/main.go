// Command calibrate measures the reproduction's single-thread scalars and
// key multithreaded points against the paper's numbers; a maintenance tool
// for tuning the profile cost constants in internal/bench/profiles.go.
package main

import (
	"fmt"
	"time"

	"mtmalloc/internal/bench"
)

func main() {
	const pairs = 200000
	single := func(name string, prof bench.Profile, size uint32, want float64) {
		res, err := bench.RunBench1(bench.B1Config{Profile: prof, Threads: 1, Size: size, Pairs: pairs, Runs: 1, Seed: 1})
		if err != nil {
			fmt.Println(name, "ERR", err)
			return
		}
		got := bench.ScaleSeconds(res.All.Mean, pairs, 10_000_000)
		fmt.Printf("%-24s %8.3f s (paper %6.2f, %+5.1f%%)\n", name, got, want, 100*(got-want)/want)
	}
	multi := func(name string, prof bench.Profile, threads int, procs bool, size uint32, want float64) {
		t0 := time.Now()
		res, err := bench.RunBench1(bench.B1Config{Profile: prof, Threads: threads, Processes: procs, Size: size, Pairs: pairs, Runs: 1, Seed: 1})
		if err != nil {
			fmt.Println(name, "ERR", err)
			return
		}
		got := bench.ScaleSeconds(res.All.Mean, pairs, 10_000_000)
		fmt.Printf("%-24s %8.3f s (paper %6.2f, %+5.1f%%)  wall %v\n", name, got, want, 100*(got-want)/want, time.Since(t0).Round(time.Millisecond))
	}

	single("ppro 1t 512B", bench.DualPPro200(), 512, 23.28)
	multi("ppro 2t shared 512B", bench.DualPPro200(), 2, false, 512, 26.05)
	multi("ppro 2p private 512B", bench.DualPPro200(), 2, true, 512, 23.31)
	single("xeon 1t 512B", bench.QuadXeon500(), 512, 10.39)
	multi("xeon 2t shared 512B", bench.QuadXeon500(), 2, false, 512, 12.40)
	multi("xeon 2p private 512B", bench.QuadXeon500(), 2, true, 512, 10.39)
	multi("xeon 3t shared 8192B", bench.QuadXeon500(), 3, false, 8192, 13.34)
	single("ultra 1t 512B", bench.SunUltra2x400(), 512, 6.05)
	multi("ultra 2t shared 512B", bench.SunUltra2x400(), 2, false, 512, 54.34)
	multi("ultra 2p private 512B", bench.SunUltra2x400(), 2, true, 512, 6.04)

	r3, _ := bench.RunBench3(bench.B3Config{Profile: bench.QuadXeon500(), Threads: 1, Size: 16, Writes: 100_000_000, Runs: 1, Seed: 1})
	fmt.Printf("%-24s %8.3f s (paper  2.102)\n", "xeon bench3 1t", r3.Wall.Mean)
}
