package bench

import (
	"math"
	"strings"
	"testing"

	"mtmalloc/internal/malloc"
)

// Test scale: small pair counts keep the suite fast; every assertion is a
// shape check with generous tolerance, while cmd/repro runs the full sizes.
const testPairs = 30000

func scaled(mean float64) float64 { return ScaleSeconds(mean, testPairs, FullPairs) }

func TestCalibrationScalars(t *testing.T) {
	cases := []struct {
		name string
		prof Profile
		want float64
	}{
		{"ppro", DualPPro200(), PaperScalars.PPro512},
		{"ultra", SunUltra2x400(), PaperScalars.Ultra512},
		{"xeon", QuadXeon500(), PaperScalars.Xeon512},
	}
	for _, c := range cases {
		r, err := RunBench1(B1Config{Profile: c.prof, Threads: 1, Size: 512, Pairs: testPairs, Runs: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := scaled(r.All.Mean)
		if math.Abs(got-c.want)/c.want > 0.06 {
			t.Errorf("%s single-thread: %.2fs, paper %.2fs (>6%% off)", c.name, got, c.want)
		}
	}
}

func TestCalibrationBench3Single(t *testing.T) {
	r, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: 1, Size: 16, Writes: 100_000_000, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Wall.Mean-PaperScalars.Bench3Single)/PaperScalars.Bench3Single > 0.08 {
		t.Errorf("bench3 single thread: %.3fs, paper %.3fs", r.Wall.Mean, PaperScalars.Bench3Single)
	}
}

func TestTable1Shape(t *testing.T) {
	th, err := RunBench1(B1Config{Profile: DualPPro200(), Threads: 2, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunBench1(B1Config{Profile: DualPPro200(), Threads: 2, Processes: true, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := th.All.Mean / pr.All.Mean
	if ratio < 1.03 || ratio > 1.30 {
		t.Errorf("thread/process ratio = %.3f, paper ~1.12", ratio)
	}
	// Both threads should see similar times (the paper's are within 0.1%).
	d := math.Abs(th.PerThread[0].Mean-th.PerThread[1].Mean) / th.All.Mean
	if d > 0.10 {
		t.Errorf("threads asymmetric: %.3f vs %.3f", th.PerThread[0].Mean, th.PerThread[1].Mean)
	}
}

func TestTable2SolarisCollapse(t *testing.T) {
	th, err := RunBench1(B1Config{Profile: SunUltra2x400(), Threads: 2, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunBench1(B1Config{Profile: SunUltra2x400(), Threads: 2, Processes: true, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := th.All.Mean / pr.All.Mean
	if ratio < 5 {
		t.Errorf("Solaris thread/process ratio = %.1f, paper ~9", ratio)
	}
}

func TestTable3Shape(t *testing.T) {
	th, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 2, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 2, Processes: true, Size: 512, Pairs: testPairs, Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := th.All.Mean / pr.All.Mean
	if ratio < 1.08 || ratio > 1.40 {
		t.Errorf("thread/process ratio = %.3f, paper ~1.19", ratio)
	}
}

func TestTable4Bimodality(t *testing.T) {
	r, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 3, Size: 8192, Pairs: testPairs, Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// In each run one thread (the main-arena one) should be clearly slower.
	for i, run := range r.Runs {
		min, max := run.PerThread[0], run.PerThread[0]
		for _, v := range run.PerThread {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if max/min < 1.08 {
			t.Errorf("run %d: no slow thread: %v", i, run.PerThread)
		}
		if max/min > 1.5 {
			t.Errorf("run %d: slosh too large: %v", i, run.PerThread)
		}
	}
}

func TestFigure1Linearity(t *testing.T) {
	var prev float64
	for _, n := range []int{1, 2, 4} {
		r, err := RunBench1(B1Config{Profile: DualPPro200(), Threads: n, Size: 8192, Pairs: testPairs, Runs: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := scaled(r.All.Mean)
		want := PaperFigure1(n)
		if math.Abs(got-want)/want > 0.30 {
			t.Errorf("%d threads: %.1fs, paper-slope value %.1fs", n, got, want)
		}
		if got < prev {
			t.Errorf("elapsed decreased with more threads: %f after %f", got, prev)
		}
		prev = got
	}
}

func TestFigure3SolarisSlope(t *testing.T) {
	r1, err := RunBench1(B1Config{Profile: SunUltra2x400(), Threads: 1, Size: 8192, Pairs: testPairs, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := RunBench1(B1Config{Profile: SunUltra2x400(), Threads: 3, Size: 8192, Pairs: testPairs, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Three threads on the single-lock allocator must be far beyond the
	// 1.5x capacity bound: the paper sees ~12x at 3 threads.
	blowup := r3.All.Mean / r1.All.Mean
	if blowup < 6 {
		t.Errorf("Solaris 3-thread blowup only %.1fx", blowup)
	}
}

func TestFigure4TimesliceJump(t *testing.T) {
	r4, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 4, Size: 8192, Pairs: testPairs, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r6, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 6, Size: 8192, Pairs: testPairs, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jump := r6.All.Mean / r4.All.Mean
	if jump < 1.25 || jump > 2.0 {
		t.Errorf("6-vs-4 thread jump = %.2fx, want ~1.5x (timeslicing past CPU count)", jump)
	}
}

func TestFigure5SingleThreadMatchesPredictor(t *testing.T) {
	for _, rounds := range []int{1, 8} {
		cfg := DefaultB2(K6_400())
		cfg.Rounds = rounds
		cfg.Runs = 3
		res, err := RunBench2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.RelSpread() > 0.02 {
			t.Errorf("rounds=%d: single-thread faults vary: %+v", rounds, res.Faults)
		}
		if math.Abs(res.Faults.Mean-res.Predicted)/res.Predicted > 0.10 {
			t.Errorf("rounds=%d: faults %.0f vs predictor %.0f", rounds, res.Faults.Mean, res.Predicted)
		}
		if n := res.Runs[0].AllocStats.ArenaCount; n != 1 {
			t.Errorf("single thread grew %d arenas", n)
		}
	}
}

func TestFigure6LeakageAppears(t *testing.T) {
	cfg := DefaultB2(K6_400())
	cfg.Threads = 3
	cfg.Rounds = 6
	cfg.Runs = 5
	res, err := RunBench2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Min < res.Predicted*0.95 {
		t.Errorf("minimum faults %.0f below predictor %.0f", res.Faults.Min, res.Predicted)
	}
	if res.Faults.RelSpread() < 0.02 {
		t.Errorf("no leak variance with 3 threads: %+v", res.Faults)
	}
	if res.Faults.Max <= res.Predicted {
		t.Errorf("max faults %.0f never exceeded predictor %.0f", res.Faults.Max, res.Predicted)
	}
}

func TestFigure8OffsetRoughlyConstant(t *testing.T) {
	// The two round counts are independent simulations, so they run
	// concurrently, as F8's rows do.
	rounds := []int{10, 40}
	offsets, err := sweepRows(len(rounds), func(i int) (float64, error) {
		cfg := DefaultB2(QuadXeon500())
		cfg.Threads = 7
		cfg.Rounds = rounds[i]
		cfg.Runs = 2
		res, err := RunBench2(cfg)
		if err != nil {
			return 0, err
		}
		return res.Faults.Mean - res.Predicted, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	o10, o40 := offsets[0], offsets[1]
	if o10 <= 0 || o40 <= 0 {
		t.Fatalf("offsets not positive: %f %f", o10, o40)
	}
	if o40/o10 > 1.5 {
		t.Errorf("offset grows with rounds (%.0f -> %.0f): heap growth is unbounded", o10, o40)
	}
}

func TestBench3AlignedFlatNormalSlows(t *testing.T) {
	alignedTimes := []float64{}
	worstNormal := 0.0
	for _, size := range []uint32{8, 16, 24, 40} {
		a, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: 2, Size: size, Writes: 100_000_000, Aligned: true, Runs: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		alignedTimes = append(alignedTimes, a.Wall.Mean)
		n, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: 2, Size: size, Writes: 100_000_000, Aligned: false, Runs: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if n.Wall.Max > worstNormal {
			worstNormal = n.Wall.Max
		}
	}
	// Aligned mode: flat across sizes.
	for _, v := range alignedTimes {
		if math.Abs(v-alignedTimes[0])/alignedTimes[0] > 0.05 {
			t.Errorf("aligned times not flat: %v", alignedTimes)
		}
	}
	// Normal mode must show at least a 1.5x slowdown somewhere.
	if worstNormal < alignedTimes[0]*1.5 {
		t.Errorf("false sharing never materialized: worst normal %.2fs vs aligned %.2fs", worstNormal, alignedTimes[0])
	}
}

func TestBench3RejectsTooManyThreads(t *testing.T) {
	_, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: 5, Size: 16, Writes: 1000, Runs: 1, Seed: 1})
	if err == nil {
		t.Fatal("threads > CPUs accepted")
	}
}

func TestScaleSeconds(t *testing.T) {
	if got := ScaleSeconds(1.5, 1000, 10000); got != 15 {
		t.Fatalf("ScaleSeconds = %v", got)
	}
	if got := ScaleSeconds(2.5, 500, 500); got != 2.5 {
		t.Fatalf("identity ScaleSeconds = %v", got)
	}
}

func TestPredictMinorFaults(t *testing.T) {
	if got := PredictMinorFaults(1, 1); math.Abs(got-142.7) > 1e-9 {
		t.Fatalf("PredictMinorFaults(1,1) = %v", got)
	}
	if got := PredictMinorFaults(7, 80); math.Abs(got-(14+1.1*560+127.6*7)) > 1e-9 {
		t.Fatalf("PredictMinorFaults(7,80) = %v", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" || e.PaperClaim == "" {
			t.Fatalf("incomplete experiment %+v", e.ID)
		}
	}
	for _, want := range []string{"S0", "T1", "T2", "T3", "T4", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "D1", "D2", "D3"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	for _, id := range []string{"T1", "A4"} {
		if _, err := ByID(id); err != nil {
			t.Error(err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted unknown ID")
	}
}

func TestProfileLookup(t *testing.T) {
	if _, err := ProfileByName("quad-xeon-500"); err != nil {
		t.Error(err)
	}
	_, err := ProfileByName("cray-1")
	if err == nil {
		t.Fatal("unknown profile accepted")
	}
	for name := range Profiles() {
		// Each name is followed by the list's separator or its end, so
		// numa-500-4n64c does not stand in for numa-500-4n.
		if !strings.Contains(err.Error(), name+",") && !strings.Contains(err.Error(), name+")") {
			t.Errorf("unknown-profile error %q does not name %s", err, name)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() float64 {
		r, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 3, Size: 8192, Pairs: 10000, Runs: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return r.All.Mean
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

func TestLarsonWorkload(t *testing.T) {
	cfg := DefaultLarson(QuadXeon500())
	cfg.Ops = 10000
	cfg.Runs = 2
	res, err := RunLarson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatal("non-positive throughput")
	}
	// Scaling: 4 threads should beat 1 thread in total throughput under
	// ptmalloc.
	cfg1 := cfg
	cfg1.Threads = 1
	r1, err := RunLarson(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.Threads = 4
	r4, err := RunLarson(cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Throughput.Mean < r1.Throughput.Mean*2 {
		t.Errorf("ptmalloc Larson throughput does not scale: 1t=%.0f 4t=%.0f", r1.Throughput.Mean, r4.Throughput.Mean)
	}
}

func TestLarsonSerialDoesNotScale(t *testing.T) {
	mk := func(threads int) float64 {
		prof := SunUltra2x400()
		cfg := DefaultLarson(prof)
		cfg.Threads = threads
		cfg.Ops = 10000
		cfg.Runs = 1
		res, err := RunLarson(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput.Mean
	}
	t1, t2 := mk(1), mk(2)
	if t2 > t1*1.2 {
		t.Errorf("serial allocator throughput scaled: 1t=%.0f 2t=%.0f", t1, t2)
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	o := Options{Scale: 0.003, Seed: 1}
	for _, ab := range Ablations() {
		tab, err := ab.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", ab.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", ab.ID)
		}
	}
}

func TestAblationKindsRun(t *testing.T) {
	// Every allocator kind must complete the bench1 loop.
	for _, kind := range malloc.Kinds() {
		prof := QuadXeon500()
		prof.Allocator = kind
		r, err := RunBench1(B1Config{Profile: prof, Threads: 2, Size: 512,
			Pairs: 5000, Runs: 1, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.All.Mean <= 0 {
			t.Fatalf("%s: non-positive elapsed", kind)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.Note("hello %d", 7)
	if tab.Text() == "" || tab.Markdown() == "" || tab.CSV() == "" {
		t.Fatal("empty rendering")
	}
	if tab.Rows[0][1] != "2.500" {
		t.Fatalf("float formatting: %q", tab.Rows[0][1])
	}
}

// TestDepotCutsArenaLockAcqsOnBench2 pins the D2 acceptance criterion: on
// benchmark 2 with bursty replacement at 4 threads, the transfer cache must
// take fewer arena-lock acquisitions than PR 1's depot-less thread cache.
func TestDepotCutsArenaLockAcqsOnBench2(t *testing.T) {
	run := func(depotCapBytes int64) uint64 {
		prof := QuadXeon500()
		prof.Allocator = malloc.KindThreadCache
		prof.AllocCosts.DepotCapBytes = depotCapBytes
		prof.AllocCosts.MmapReuseCap = -1
		prof.AllocCosts.CacheAdaptive = -1
		cfg := DefaultB2(prof)
		cfg.Threads = 4
		cfg.Rounds = 2
		cfg.Objects = 2000
		cfg.BatchReplace = 100
		cfg.Runs = 1
		res, err := RunBench2(cfg)
		if err != nil {
			t.Fatalf("bench2 (depot cap %d bytes): %v", depotCapBytes, err)
		}
		return res.Runs[0].AllocStats.ArenaLockAcqs
	}
	without := run(-1)
	with := run(0) // the default byte cap
	if with >= without {
		t.Errorf("depot did not cut arena lock acquisitions: %d with vs %d without", with, without)
	}
}

// TestReuseCutsSyscallsAndFaultsOnLarson pins the other half of D2: on an
// above-threshold Larson workload, the mmap reuse cache must cut both the
// mmap+munmap syscall count and the minor fault count.
func TestReuseCutsSyscallsAndFaultsOnLarson(t *testing.T) {
	run := func(reuseCap int64) (syscalls, faults uint64) {
		prof := QuadXeon500()
		prof.Allocator = malloc.KindThreadCache
		prof.AllocCosts.MmapReuseCap = reuseCap
		prof.AllocCosts.DepotCapBytes = -1
		prof.AllocCosts.CacheAdaptive = -1
		cfg := LarsonConfig{Profile: prof, Threads: 2, Slots: 20,
			MinSize: 160 * 1024, MaxSize: 160 * 1024, Ops: 300, Runs: 1, Seed: 1}
		res, err := RunLarson(cfg)
		if err != nil {
			t.Fatalf("larson (reuse cap %d): %v", reuseCap, err)
		}
		r := res.Runs[0]
		return r.VMStats.MmapCalls + r.VMStats.MunmapCalls, r.VMStats.MinorFaults
	}
	sysOff, faultsOff := run(-1)
	sysOn, faultsOn := run(4 << 20)
	if sysOn >= sysOff {
		t.Errorf("reuse did not cut syscalls: %d with vs %d without", sysOn, sysOff)
	}
	if faultsOn >= faultsOff {
		t.Errorf("reuse did not cut minor faults: %d with vs %d without", faultsOn, faultsOff)
	}
}

// TestScavengerFootprintDecay pins the D3 acceptance criteria at test
// scale: with the scavenger on, the thread-cache footprint must decay by at
// least half during the idle phase, and the post-idle burst must stay within
// ~15% of the no-scavenger run's throughput (the checked-in BENCH_D3.json
// documents ~3% at full scale; the test bound is looser against seed drift).
func TestScavengerFootprintDecay(t *testing.T) {
	prof := QuadXeon500()
	run := func(scav bool) FootprintRun {
		cfg := DefaultFootprint(prof)
		cfg.Slots = 800
		cfg.LargeSlots = 2
		cfg.Phases = []Phase{{Ops: 8000, IdleSeconds: 0.06}, {Ops: 8000}}
		cfg.SamplePeriodSeconds = 0.002
		if scav {
			cfg.Profile.AllocCosts.ScavengeInterval = 1_000_000
		}
		r, err := RunFootprint(cfg)
		if err != nil {
			t.Fatalf("footprint (scav=%v): %v", scav, err)
		}
		return r
	}
	off := run(false)
	on := run(true)
	if on.DecayPercent < 50 {
		t.Errorf("idle decay %.1f%% with scavenging on, want >= 50%%", on.DecayPercent)
	}
	if off.IdleTrough > 0 && off.PeakFootprint > 0 {
		offDecay := 100 * (1 - float64(off.IdleTrough)/float64(off.PeakFootprint))
		if offDecay > 25 {
			t.Errorf("no-scavenger footprint decayed %.1f%% by itself: the ablation is not isolating the scavenger", offDecay)
		}
	}
	if on.AllocStats.ScavengeEpochs == 0 {
		t.Error("scavenger never ran an epoch")
	}
	ratio := on.PhaseThroughput[1] / off.PhaseThroughput[1]
	if ratio < 0.85 {
		t.Errorf("post-idle burst throughput ratio %.3f, want >= 0.85 (scavenging must not tank the next burst)", ratio)
	}
}

// TestBinnedReleaseFootprintDecay pins the D3 extension at test scale: the
// PageHeap-style binned release must push the idle decay materially past
// what the top trim alone manages (the multi-segment sub-arenas keep most
// flushed memory in bins), must actually release binned interiors and charge
// refaults when the next burst re-carves them, and must not tank the
// post-idle burst (the resident bin pad keeps the refill's first carves
// warm). The checked-in BENCH_D3.json documents 75.9% vs 57.4% decay at
// 0.957x full-scale throughput; the test bounds are looser against scale
// and seed drift.
func TestBinnedReleaseFootprintDecay(t *testing.T) {
	prof := QuadXeon500()
	run := func(binned bool) FootprintRun {
		cfg := DefaultFootprint(prof)
		cfg.Slots = 800
		cfg.LargeSlots = 2
		cfg.Phases = []Phase{{Ops: 8000, IdleSeconds: 0.06}, {Ops: 8000}}
		cfg.SamplePeriodSeconds = 0.002
		costs := &cfg.Profile.AllocCosts
		costs.ScavengeInterval = 1_000_000
		if binned {
			costs.ScavengeMinBinBytes = 4096
			// The test workload is ~5x smaller than D3, so scale the
			// resident bin pad down with it or nothing clears the floor.
			costs.ScavengeBinPad = 64 << 10
		}
		r, err := RunFootprint(cfg)
		if err != nil {
			t.Fatalf("footprint (binned=%v): %v", binned, err)
		}
		return r
	}
	trimOnly := run(false)
	binned := run(true)
	if binned.AllocStats.Heap.BinReleases == 0 || binned.AllocStats.ScavengeBinBytes == 0 {
		t.Fatalf("binned release never fired: %d releases, %d bytes",
			binned.AllocStats.Heap.BinReleases, binned.AllocStats.ScavengeBinBytes)
	}
	if trimOnly.AllocStats.Heap.BinReleases != 0 {
		t.Errorf("binned release fired %d times with the knob off", trimOnly.AllocStats.Heap.BinReleases)
	}
	if binned.DecayPercent < trimOnly.DecayPercent+10 {
		t.Errorf("binned decay %.1f%% vs top-trim-only %.1f%%: the binned stage is not reaching the bins",
			binned.DecayPercent, trimOnly.DecayPercent)
	}
	if binned.VMStats.Refaults == 0 {
		t.Error("post-idle burst re-carved released interiors without refaults")
	}
	if binned.VMStats.Refaults > binned.VMStats.PagesReleased {
		t.Errorf("refaults %d > pages released %d", binned.VMStats.Refaults, binned.VMStats.PagesReleased)
	}
	if len(binned.PhaseThroughput) > 1 && len(trimOnly.PhaseThroughput) > 1 {
		ratio := binned.PhaseThroughput[1] / trimOnly.PhaseThroughput[1]
		if ratio < 0.85 {
			t.Errorf("post-idle burst throughput %.3fx of the trim-only run, want >= 0.85", ratio)
		}
	}
}

// TestLarsonPhaseSchedule: the phase knob must run all the scheduled bursts
// (ops preserved) with the idle gaps stretching wall time, not op count.
func TestLarsonPhaseSchedule(t *testing.T) {
	cfg := DefaultLarson(QuadXeon500())
	cfg.Threads = 2
	cfg.Slots = 50
	cfg.Runs = 1
	flat := cfg
	flat.Ops = 4000
	phased := cfg
	phased.Phases = []Phase{{Ops: 2000, IdleSeconds: 0.02}, {Ops: 2000}}
	fr, err := RunLarson(flat)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := RunLarson(phased)
	if err != nil {
		t.Fatal(err)
	}
	// Same total replaces either way; throughput (wall-clock based) must
	// drop under the phased schedule because the idle gap counts.
	if pr.Runs[0].WallSeconds < fr.Runs[0].WallSeconds+0.015 {
		t.Errorf("phased wall %.4fs vs flat %.4fs: the 20ms idle gap vanished",
			pr.Runs[0].WallSeconds, fr.Runs[0].WallSeconds)
	}
	if pr.Runs[0].AllocStats.Heap.Mallocs < fr.Runs[0].AllocStats.Heap.Mallocs {
		t.Errorf("phased run did fewer mallocs (%d) than flat (%d)",
			pr.Runs[0].AllocStats.Heap.Mallocs, fr.Runs[0].AllocStats.Heap.Mallocs)
	}
}

// TestLarsonShapesHonourMemLimit: every Larson shape — flat, phased,
// Rotate and Producers — runs to completion under a commit limit just below
// its own unlimited peak, skipping the slot refills the emergency cascade
// cannot serve instead of aborting on the first one.
func TestLarsonShapesHonourMemLimit(t *testing.T) {
	shapes := []struct {
		name  string
		shape func(*LarsonConfig)
	}{
		{"flat", func(*LarsonConfig) {}},
		{"phased", func(c *LarsonConfig) { c.Phases = []Phase{{Ops: 2000, IdleSeconds: 0.01}, {Ops: 2000}} }},
		{"rotate", func(c *LarsonConfig) { c.Rotate = true }},
		{"producers", func(c *LarsonConfig) { c.Producers = 2 }},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = malloc.KindSerial
			cfg := LarsonConfig{Profile: prof, Threads: 4, Slots: 500, MinSize: 10, MaxSize: 400,
				Ops: 4000, Runs: 1, Seed: 1}
			sh.shape(&cfg)
			base, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MemLimit = uint64(0.98 * float64(base.Runs[0].VMStats.PeakCommitted))
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatalf("under a commit limit at 0.98x peak: %v", err)
			}
			r := res.Runs[0]
			if r.OOMSkips == 0 {
				t.Error("the commit limit never failed a refill: the run proved nothing")
			}
			if r.OOMSkips != r.AllocStats.OOMFails {
				t.Errorf("%d skipped refills but %d allocations the cascade gave up on", r.OOMSkips, r.AllocStats.OOMFails)
			}
		})
	}
}
