package bench

import (
	"reflect"
	"testing"

	"mtmalloc/internal/malloc"
)

// TestOffloadedLarsonDeterministic: two identical fixed-seed Larson runs
// with the service threads on produce bit-identical results — throughput,
// faults, allocator counters and telemetry totals. The rotating workload
// makes most frees cross-thread, so the mailbox exchange, the post-time
// home routing of remote batches and the pinned service threads all run,
// and none may introduce any host-order dependence.
func TestOffloadedLarsonDeterministic(t *testing.T) {
	for _, kind := range []malloc.Kind{malloc.KindThreadCacheSvc, malloc.KindLockFreeSvc} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func() LarsonRun {
				t.Helper()
				cfg := LarsonConfig{
					Profile: NUMAServerScale(2, 8), Threads: 8, Slots: 50,
					MinSize: 10, MaxSize: 100, Ops: 300, Runs: 1, Seed: 7,
					Rotate: true, Allocator: kind, Telemetry: true,
				}
				res, err := RunLarson(cfg)
				if err != nil {
					t.Fatalf("RunLarson: %v", err)
				}
				return res.Runs[0]
			}
			a, b := run(), run()
			if a.Throughput != b.Throughput || a.WallSeconds != b.WallSeconds {
				t.Errorf("throughput/wall differ across identical runs: %v/%v vs %v/%v",
					a.Throughput, a.WallSeconds, b.Throughput, b.WallSeconds)
			}
			if a.MinorFaults != b.MinorFaults || a.ArenaCount != b.ArenaCount {
				t.Errorf("faults/arenas differ: %d/%d vs %d/%d",
					a.MinorFaults, a.ArenaCount, b.MinorFaults, b.ArenaCount)
			}
			if !reflect.DeepEqual(a.AllocStats, b.AllocStats) {
				t.Errorf("allocator stats differ:\n%+v\nvs\n%+v", a.AllocStats, b.AllocStats)
			}
			ra, rb := a.Telemetry.Report(), b.Telemetry.Report()
			if ra.TotalMallocCycles != rb.TotalMallocCycles ||
				ra.TotalFreeCycles != rb.TotalFreeCycles ||
				ra.TotalMailboxCycles != rb.TotalMailboxCycles {
				t.Errorf("telemetry cycle totals differ: %d/%d/%d vs %d/%d/%d",
					ra.TotalMallocCycles, ra.TotalFreeCycles, ra.TotalMailboxCycles,
					rb.TotalMallocCycles, rb.TotalFreeCycles, rb.TotalMailboxCycles)
			}
			if a.AllocStats.SvcEpochs == 0 {
				t.Error("service never ran an epoch — the determinism check exercised nothing")
			}
		})
	}
}

// TestHarnessesRunTheService: benchmarks 1 and 2 and the D9 placement
// harness start an offloaded kind's service threads, so a -svc kind there
// measures the mailbox design rather than silently running inline.
func TestHarnessesRunTheService(t *testing.T) {
	svc := malloc.KindThreadCacheSvc
	for _, processes := range []bool{false, true} {
		res, err := RunBench1(B1Config{Profile: QuadXeon500(), Threads: 2, Processes: processes,
			Size: 64, Pairs: 2000, Runs: 1, Seed: 1, Allocator: svc})
		if err != nil {
			t.Fatalf("RunBench1 (processes %v): %v", processes, err)
		}
		if res.Runs[0].AllocStats.SvcEpochs == 0 {
			t.Errorf("RunBench1 (processes %v): no service epoch ran", processes)
		}
	}
	b2, err := RunBench2(B2Config{Profile: QuadXeon500(), Threads: 2, Rounds: 2, Objects: 500,
		Size: 40, Runs: 1, Seed: 1, Allocator: svc})
	if err != nil {
		t.Fatalf("RunBench2: %v", err)
	}
	if b2.Runs[0].AllocStats.SvcEpochs == 0 {
		t.Error("RunBench2: no service epoch ran")
	}
	pl, err := RunPlacement(PlacementConfig{Profile: NUMAServerScale(2, 4), Threads: 3, Sizes: []uint32{16, 24, 56},
		ObjsPerConsumer: 40, WorkingSet: 4, QueueDepth: 4, Allocator: svc, Seed: 1})
	if err != nil {
		t.Fatalf("RunPlacement: %v", err)
	}
	if pl.AllocStats.SvcEpochs == 0 {
		t.Error("RunPlacement: no service epoch ran")
	}
}
