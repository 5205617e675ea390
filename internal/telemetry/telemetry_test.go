package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"mtmalloc/internal/sim"
)

// runOne drives body on a single simulated thread.
func runOne(t *testing.T, body func(th *sim.Thread)) {
	t.Helper()
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderOpAttribution(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.spanEvery = 2
	runOne(t, func(th *sim.Thread) {
		for i := 0; i < 10; i++ {
			start := th.Now()
			th.Charge(100)
			rec.Op(th, OpMalloc, 64, TierMagazine, start)
		}
		start := th.Now()
		th.Charge(900)
		rec.Op(th, OpMalloc, 64, TierArena, start)
		start = th.Now()
		th.Charge(50)
		rec.Op(th, OpFree, 64, TierMagazine, start)
	})
	rep := rec.Report()
	if rep.MallocOps != 11 || rep.FreeOps != 1 {
		t.Fatalf("op counts: %d mallocs, %d frees", rep.MallocOps, rep.FreeOps)
	}
	if rep.TotalMallocCycles != 10*100+900 {
		t.Fatalf("TotalMallocCycles = %d, want 1900", rep.TotalMallocCycles)
	}
	// Tier attribution must sum to the total by construction.
	var tierSum uint64
	for _, ts := range rep.Tiers {
		if ts.Op == "malloc" {
			tierSum += ts.Cycles
		}
	}
	if tierSum != rep.TotalMallocCycles {
		t.Fatalf("tier cycles %d != total %d", tierSum, rep.TotalMallocCycles)
	}
	if got := rec.TierCycles(OpMalloc, TierArena); got != 900 {
		t.Fatalf("arena tier cycles = %d, want 900", got)
	}
	h := rec.Hist(OpMalloc)
	if h.Total() != 11 {
		t.Fatalf("merged malloc hist total = %d", h.Total())
	}
	if p50, p999 := h.Quantile(0.5), h.Quantile(0.999); p50 > p999 {
		t.Fatalf("p50 %d > p999 %d", p50, p999)
	}
	// spanEvery=2 over 12 ops -> 6 op spans.
	if rec.EventCount() != 6 {
		t.Fatalf("event count = %d, want 6", rec.EventCount())
	}
}

func TestRecorderSampler(t *testing.T) {
	rec := NewRecorder(Config{})
	rec.sampleEvery = 1000
	calls := 0
	rec.SetSampleSource(func() Sample {
		calls++
		return Sample{ResidentBytes: uint64(calls) * 4096, Arenas: []ArenaFrag{{Index: 0, ResidentBytes: 4096, LiveBytes: 100}}}
	})
	runOne(t, func(th *sim.Thread) {
		for i := 0; i < 50; i++ {
			th.Charge(100)
			rec.MaybeSample(th)
		}
	})
	samples := rec.Samples()
	// 5000 cycles at a 1000-cycle interval, first call arms: ~4 samples.
	if len(samples) < 2 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Time <= samples[i-1].Time {
			t.Fatalf("sample times not strictly increasing: %d then %d", samples[i-1].Time, samples[i].Time)
		}
	}
	if samples[0].Arenas[0].ResidentBytes != 4096 {
		t.Fatalf("arena gauge not carried through: %+v", samples[0])
	}
}

func TestRecorderTraceJSON(t *testing.T) {
	rec := NewRecorder(Config{ClockMHz: 100})
	runOne(t, func(th *sim.Thread) {
		start := th.Now()
		th.Charge(500)
		rec.Span(th, "scavenge pass", "scavenge", start)
		rec.Instant(th, "oom retry", "pressure")
	})
	raw, err := rec.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("trace events = %d, want 2", len(tf.TraceEvents))
	}
	span := tf.TraceEvents[0]
	if span["ph"] != "X" || span["name"] != "scavenge pass" {
		t.Fatalf("bad span event: %v", span)
	}
	// 500 cycles at 100 MHz = 5 microseconds.
	if span["dur"].(float64) != 5 {
		t.Fatalf("span dur = %v, want 5us", span["dur"])
	}
	if tf.TraceEvents[1]["ph"] != "i" {
		t.Fatalf("bad instant event: %v", tf.TraceEvents[1])
	}
}

func TestRecorderDeterministicOutput(t *testing.T) {
	run := func() ([]byte, []byte) {
		rec := NewRecorder(Config{})
		rec.spanEvery, rec.sampleEvery = 3, 500
		rec.SetSampleSource(func() Sample { return Sample{ResidentBytes: 1} })
		runOne(t, func(th *sim.Thread) {
			for i := 0; i < 40; i++ {
				start := th.Now()
				th.Charge(sim.Time(10 + i*7))
				kind, tier := OpMalloc, TierMagazine
				if i%3 == 0 {
					kind = OpFree
				}
				if i%5 == 0 {
					tier = TierDepot
				}
				rec.Op(th, kind, uint32(16*(1+i%4)), tier, start)
				rec.MaybeSample(th)
			}
		})
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
	r1, t1 := run()
	r2, t2 := run()
	if !bytes.Equal(r1, r2) {
		t.Fatal("ReportJSON differs across identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("TraceJSON differs across identical runs")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	runOne(t, func(th *sim.Thread) {
		rec.Op(th, OpMalloc, 16, TierMagazine, 0)
		rec.Instant(th, "x", "y")
		rec.Span(th, "x", "y", 0)
		rec.MaybeSample(th)
		rec.SetSampleSource(func() Sample { return Sample{} })
	})
	if rec.Samples() != nil || rec.EventCount() != 0 || rec.TierCycles(OpMalloc, TierVM) != 0 {
		t.Fatal("nil recorder reported data")
	}
	if rec.Hist(OpMalloc).Total() != 0 {
		t.Fatal("nil recorder histogram non-empty")
	}
	rep := rec.Report()
	if rep.MallocOps != 0 || len(rep.Latency) != 0 {
		t.Fatalf("nil recorder report non-empty: %+v", rep)
	}
}
