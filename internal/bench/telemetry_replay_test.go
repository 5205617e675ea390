package bench

import (
	"bytes"
	"testing"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

// These tests pin the telemetry layer's two determinism guarantees against
// the replay goldens in replay_test.go:
//
//  1. Turning telemetry ON leaves allocator behavior bit-identical — the
//     same throughput floats and counter values the telemetry-off goldens
//     pin. (The off direction is structural: a disabled recorder is a nil
//     pointer behind one branch.) Recording reads clocks but never charges
//     them, so any divergence here means a recording site leaked cycles or
//     perturbed control flow.
//  2. Telemetry output itself is deterministic: two identical runs emit
//     byte-identical report and trace JSON.

// telemetryLarsonConfig is the TestReplayLarson threadcache configuration
// with a recorder attached.
func telemetryLarsonConfig() LarsonConfig {
	cfg := DefaultLarson(QuadXeon500())
	cfg.Threads = 4
	cfg.Ops = 3000
	cfg.Runs = 1
	cfg.Seed = 1
	cfg.Allocator = malloc.KindThreadCache
	cfg.Telemetry = true
	return cfg
}

func TestTelemetryLeavesLarsonGoldenIdentical(t *testing.T) {
	res, err := RunLarson(telemetryLarsonConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	// Goldens from TestReplayLarson (threadcache row), captured with
	// telemetry off.
	wantf(t, "Throughput", run.Throughput, "0x1.c9fdaee43f3d4p+21")
	wantu(t, "MinorFaults", run.MinorFaults, 153)
	wantu(t, "ArenaLockAcqs", run.AllocStats.ArenaLockAcqs, 306)
	wantu(t, "DepotHits", run.AllocStats.DepotHits, 67)
	wantu(t, "DepotDonates", run.AllocStats.DepotDonates, 145)

	rec := run.Telemetry
	if rec == nil {
		t.Fatal("run carried no telemetry recorder")
	}
	rep := rec.Report()
	// Every malloc and free the workload performed must be accounted for:
	// 4 threads x (1 slot array + 1000 prefills + 3000 replaces), with
	// each replace doing one free and one malloc (all slots stay full in
	// this config).
	if rep.MallocOps == 0 || rep.FreeOps == 0 {
		t.Fatalf("no ops recorded: %d mallocs, %d frees", rep.MallocOps, rep.FreeOps)
	}
	var mallocTierCycles, freeTierCycles uint64
	for _, ts := range rep.Tiers {
		switch ts.Op {
		case "malloc":
			mallocTierCycles += ts.Cycles
		case "free":
			freeTierCycles += ts.Cycles
		}
	}
	if mallocTierCycles != rep.TotalMallocCycles {
		t.Errorf("malloc tier cycles %d != total %d", mallocTierCycles, rep.TotalMallocCycles)
	}
	if freeTierCycles != rep.TotalFreeCycles {
		t.Errorf("free tier cycles %d != total %d", freeTierCycles, rep.TotalFreeCycles)
	}
	// A threadcache Larson run must be dominated by magazine traffic.
	if got := rec.Hist(telemetry.OpMalloc).Total(); got != rep.MallocOps {
		t.Errorf("merged malloc histogram total %d != MallocOps %d", got, rep.MallocOps)
	}
	if p50, p99 := rec.Hist(telemetry.OpMalloc).Quantile(0.5), rec.Hist(telemetry.OpMalloc).Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	if len(rep.Samples) == 0 {
		t.Error("time series empty")
	}
	for _, s := range rep.Samples {
		if len(s.Arenas) == 0 {
			t.Fatalf("sample at %d missing the per-arena fragmentation gauge", s.Time)
		}
	}
	if rec.EventCount() == 0 {
		t.Error("no trace events recorded")
	}
}

func TestTelemetryLeavesScavengeGoldenIdentical(t *testing.T) {
	// TestReplayD3Scavenge's configuration, with telemetry on: the
	// scavenger pass spans and the sampler tick ride the same virtual
	// clocks the golden pins.
	prof := QuadXeon500()
	costs := prof.ScavengeCosts()
	costs.ScavengeMinBinBytes = 32 << 10
	cfg := DefaultLarson(prof)
	cfg.Threads = 4
	cfg.Ops = 2500
	cfg.Runs = 1
	cfg.Seed = 1
	cfg.Allocator = malloc.KindThreadCache
	cfg.Costs = &costs
	cfg.Phases = []Phase{{Ops: 1500, IdleSeconds: 0.05}, {Ops: 1000}}
	cfg.Telemetry = true
	res, err := RunLarson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	wantf(t, "Throughput", run.Throughput, "0x1.707b0c236991dp+17")
	wantu(t, "ScavengeEpochs", run.AllocStats.ScavengeEpochs, 2)
	wantu(t, "ScavengeBytes", run.AllocStats.ScavengeBytes, 130224)
	wantu(t, "PagesReleased", run.AllocStats.PagesReleased, 0)
	if run.Telemetry.EventCount() == 0 {
		t.Error("no trace events from a phased scavenging run")
	}
}

func TestTelemetryOutputDeterministic(t *testing.T) {
	emit := func() ([]byte, []byte) {
		res, err := RunLarson(telemetryLarsonConfig())
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Runs[0].Telemetry
		rj, err := rec.ReportJSON()
		if err != nil {
			t.Fatal(err)
		}
		tj, err := rec.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return rj, tj
	}
	r1, t1 := emit()
	r2, t2 := emit()
	if !bytes.Equal(r1, r2) {
		t.Error("report JSON differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs across identical runs")
	}
}
