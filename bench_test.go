package mtmalloc

// One testing.B benchmark per paper table and figure. Each runs a reduced
// but structurally identical configuration of the corresponding experiment
// and reports the simulated seconds as a custom metric ("sim-s"), next to
// the usual wall-clock ns/op of running the simulation itself.

import (
	"testing"

	"mtmalloc/internal/bench"
)

const benchPairs = 50000

func reportSim(b *testing.B, simSeconds float64) {
	b.ReportMetric(simSeconds, "sim-s")
}

func runB1(b *testing.B, prof Profile, threads int, procs bool, size uint32) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBench1(bench.B1Config{
			Profile: prof, Threads: threads, Processes: procs, Size: size,
			Pairs: benchPairs, Runs: 1, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = bench.ScaleSeconds(res.All.Mean, benchPairs, bench.FullPairs)
	}
	reportSim(b, last)
}

// BenchmarkSingleThreadPPro is the 23.28s calibration scalar.
func BenchmarkSingleThreadPPro(b *testing.B) { runB1(b, DualPPro200(), 1, false, 512) }

// BenchmarkSingleThreadUltra is the 6.05s calibration scalar.
func BenchmarkSingleThreadUltra(b *testing.B) { runB1(b, SunUltra2x400(), 1, false, 512) }

// BenchmarkSingleThreadXeon is the 10.39s calibration scalar.
func BenchmarkSingleThreadXeon(b *testing.B) { runB1(b, QuadXeon500(), 1, false, 512) }

// BenchmarkTable1 reproduces Table 1's thread mode (dual PPro, 512B).
func BenchmarkTable1(b *testing.B) { runB1(b, DualPPro200(), 2, false, 512) }

// BenchmarkTable1Processes reproduces Table 1's process mode.
func BenchmarkTable1Processes(b *testing.B) { runB1(b, DualPPro200(), 2, true, 512) }

// BenchmarkFigure1 reproduces Figure 1's 4-thread point (dual PPro, 8192B).
func BenchmarkFigure1(b *testing.B) { runB1(b, DualPPro200(), 4, false, 8192) }

// BenchmarkFigure2 reproduces Figure 2's 16-thread point (dual PPro, 4100B).
func BenchmarkFigure2(b *testing.B) { runB1(b, DualPPro200(), 16, false, 4100) }

// BenchmarkTable2 reproduces Table 2's thread mode (Solaris single lock).
func BenchmarkTable2(b *testing.B) { runB1(b, SunUltra2x400(), 2, false, 512) }

// BenchmarkTable2Processes reproduces Table 2's process mode.
func BenchmarkTable2Processes(b *testing.B) { runB1(b, SunUltra2x400(), 2, true, 512) }

// BenchmarkFigure3 reproduces Figure 3's 4-thread point (Solaris, 8192B).
func BenchmarkFigure3(b *testing.B) { runB1(b, SunUltra2x400(), 4, false, 8192) }

// BenchmarkTable3 reproduces Table 3's thread mode (quad Xeon, 512B).
func BenchmarkTable3(b *testing.B) { runB1(b, QuadXeon500(), 2, false, 512) }

// BenchmarkTable3Processes reproduces Table 3's process mode.
func BenchmarkTable3Processes(b *testing.B) { runB1(b, QuadXeon500(), 2, true, 512) }

// BenchmarkFigure4 reproduces Figure 4's 6-thread point (quad Xeon, 8192B).
func BenchmarkFigure4(b *testing.B) { runB1(b, QuadXeon500(), 6, false, 8192) }

// BenchmarkTable4 reproduces Table 4's 3-thread variance runs.
func BenchmarkTable4(b *testing.B) { runB1(b, QuadXeon500(), 3, false, 8192) }

func runB2(b *testing.B, prof Profile, threads, rounds int) {
	b.Helper()
	var faults float64
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultB2(prof)
		cfg.Threads = threads
		cfg.Rounds = rounds
		cfg.Runs = 1
		cfg.Seed = uint64(i + 1)
		res, err := bench.RunBench2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		faults = res.Faults.Mean
	}
	b.ReportMetric(faults, "minor-faults")
}

// BenchmarkFigure5 reproduces Figure 5 (1 thread, 8 rounds, K6).
func BenchmarkFigure5(b *testing.B) { runB2(b, K6_400(), 1, 8) }

// BenchmarkFigure6 reproduces Figure 6 (3 threads, 8 rounds, K6).
func BenchmarkFigure6(b *testing.B) { runB2(b, K6_400(), 3, 8) }

// BenchmarkFigure7 reproduces Figure 7 (7 threads, 8 rounds, K6).
func BenchmarkFigure7(b *testing.B) { runB2(b, K6_400(), 7, 8) }

// BenchmarkFigure8 reproduces Figure 8 (7 threads, 40 rounds, quad Xeon).
func BenchmarkFigure8(b *testing.B) { runB2(b, QuadXeon500(), 7, 40) }

func runB3(b *testing.B, threads int, size uint32, aligned bool) {
	b.Helper()
	var wall float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBench3(bench.B3Config{
			Profile: QuadXeon500(), Threads: threads, Size: size,
			Writes: 100_000_000, Aligned: aligned, Runs: 1, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		wall = res.Wall.Mean
	}
	reportSim(b, wall)
}

// BenchmarkSingleThreadBench3 is the 2.102s calibration scalar.
func BenchmarkSingleThreadBench3(b *testing.B) { runB3(b, 1, 16, false) }

// BenchmarkFigure9 reproduces Figure 9 (2 threads, 24B objects).
func BenchmarkFigure9(b *testing.B) { runB3(b, 2, 24, false) }

// BenchmarkFigure9Aligned is Figure 9's cache-aligned series.
func BenchmarkFigure9Aligned(b *testing.B) { runB3(b, 2, 24, true) }

// BenchmarkFigure10 reproduces Figure 10 (3 threads).
func BenchmarkFigure10(b *testing.B) { runB3(b, 3, 24, false) }

// BenchmarkFigure11 reproduces Figure 11 (4 threads).
func BenchmarkFigure11(b *testing.B) { runB3(b, 4, 24, false) }

// --- ablation benches (A1, A3–A6) ---

func runB1Alloc(b *testing.B, kind AllocatorKind, threads int) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunBench1(bench.B1Config{
			Profile: QuadXeon500(), Threads: threads, Size: 8192,
			Pairs: benchPairs, Runs: 1, Seed: uint64(i + 1), Allocator: kind,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = bench.ScaleSeconds(res.All.Mean, benchPairs, bench.FullPairs)
	}
	reportSim(b, last)
}

// BenchmarkAblationArenaPolicy: glibc's trylock-sweep arenas, 4 threads.
func BenchmarkAblationArenaPolicy(b *testing.B) { runB1Alloc(b, PTMalloc, 4) }

// BenchmarkAblationSerial: one lock around one heap, 4 threads.
func BenchmarkAblationSerial(b *testing.B) { runB1Alloc(b, Serial, 4) }

// BenchmarkAblationPerThread: private arena per thread, 4 threads.
func BenchmarkAblationPerThread(b *testing.B) { runB1Alloc(b, PerThread, 4) }

// BenchmarkAblationAlignment: cache-aligned allocation under the worst
// false-sharing size.
func BenchmarkAblationAlignment(b *testing.B) { runB3(b, 4, 24, true) }

// BenchmarkAblationTrim: benchmark 2 with trim disabled.
func BenchmarkAblationTrim(b *testing.B) {
	prof := QuadXeon500()
	prof.HeapParams.Trim = false
	runB2(b, prof, 3, 8)
}

// BenchmarkAblationSbrkMmap: pre-2.1.3 glibc without the mmap retry.
func BenchmarkAblationSbrkMmap(b *testing.B) {
	prof := QuadXeon500()
	prof.HeapParams.RetrySbrkWithMmap = false
	runB2(b, prof, 3, 8)
}

// BenchmarkAblationKernelLock: two processes under a global kernel lock.
func BenchmarkAblationKernelLock(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.AblationKernelLock(bench.Options{Scale: 0.005, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
		last = 1
	}
	reportSim(b, last)
}

// BenchmarkLarson: the full random-size Larson workload, 4 threads.
func BenchmarkLarson(b *testing.B) {
	var tput float64
	for i := 0; i < b.N; i++ {
		cfg := bench.DefaultLarson(QuadXeon500())
		cfg.Threads = 4
		cfg.Ops = 20000
		cfg.Runs = 1
		cfg.Seed = uint64(i + 1)
		res, err := bench.RunLarson(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tput = res.Throughput.Mean
	}
	b.ReportMetric(tput, "sim-ops/s")
}
