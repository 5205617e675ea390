package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
)

// This file is experiment D6: graceful degradation under memory pressure.
// Each design first runs Larson unlimited to measure its own peak committed
// bytes, then reruns the identical workload under a commit limit ratcheting
// down through fractions of that peak. Above 1.0x the limit is never reached
// and the numbers are bit-identical to the unlimited run; below it the
// allocator lives off its emergency reclamation cascade (malloc/pressure.go)
// until even that cannot find the bytes — the first hard failure ends the
// ratchet and is the design's floor.

// PressureRatios is the D6 commit-limit ratchet, in fractions of the
// unlimited run's peak committed bytes, highest first. 1.50 and 1.25 are the
// headroom sanity points (must be bit-identical to unlimited), 1.00 is the
// exact peak, and the sub-1.0 tail is where the emergency cascade earns its
// keep.
var PressureRatios = []float64{1.50, 1.25, 1.10, 1.00, 0.95, 0.90, 0.85, 0.80, 0.75, 0.70}

// ExpPressure (D6) drives Larson — flat and in the D3 burst/idle/burst phase
// shape — against the ratcheting commit limit for all five designs.
func ExpPressure(o Options) (*Table, error) {
	prof := QuadXeon500()
	const ops = 20000
	t := &Table{ID: "D6", Title: "graceful degradation under memory pressure: Larson 4 threads, commit limit ratcheting toward peak live bytes",
		Columns: []string{"allocator", "workload", "limit/peak", "limit(KB)", "tput(ops/s)", "tput ratio", "emerg passes", "oom retries", "oom fails", "skips"}}
	for _, kind := range []malloc.Kind{malloc.KindSerial, malloc.KindPTMalloc, malloc.KindPerThread, malloc.KindThreadCache, malloc.KindLockFree} {
		for _, wl := range []string{"flat", "phases"} {
			cfg := LarsonConfig{Profile: prof, Threads: 4, Slots: 500,
				MinSize: 10, MaxSize: 400, Ops: ops, Runs: 1, Seed: o.seed()}
			cfg.Profile.Allocator = kind
			if wl == "phases" {
				cfg.Phases = []Phase{{Ops: ops / 2, IdleSeconds: 0.02}, {Ops: ops - ops/2}}
			}
			base, err := RunLarson(cfg)
			if err != nil {
				return nil, fmt.Errorf("D6 %s %s baseline: %w", kind, wl, err)
			}
			br := base.Runs[0]
			peak := br.VMStats.PeakCommitted
			t.AddRow(string(kind), wl, "none", peak/1024,
				fmt.Sprintf("%.0f", br.Throughput), "1.00", 0, 0, 0, 0)
			failedAt := 0.0
			for _, ratio := range PressureRatios {
				lcfg := cfg
				lcfg.MemLimit = uint64(ratio * float64(peak))
				res, rerr := RunLarson(lcfg)
				if rerr != nil {
					// The run died outside the tolerated slot-refill path
					// (e.g. a refault past the limit): the hard floor.
					t.AddRow(string(kind), wl, fmt.Sprintf("%.2f", ratio), lcfg.MemLimit/1024,
						"FAILED", "-", "-", "-", "-", "-")
					failedAt = ratio
					break
				}
				r := res.Runs[0]
				st := r.AllocStats
				t.AddRow(string(kind), wl, fmt.Sprintf("%.2f", ratio), lcfg.MemLimit/1024,
					fmt.Sprintf("%.0f", r.Throughput),
					fmt.Sprintf("%.3f", r.Throughput/br.Throughput),
					st.EmergencyScavenges, st.OOMRetries, st.OOMFails, r.OOMSkips)
			}
			if failedAt > 0 {
				t.Note("%s/%s: first hard failure at %.2fx peak (%d KB peak committed)", kind, wl, failedAt, peak/1024)
			} else {
				t.Note("%s/%s: survived the whole ratchet down to %.2fx peak", kind, wl, PressureRatios[len(PressureRatios)-1])
			}
		}
	}
	t.Note("peak committed = the unlimited run's high-water mapped-minus-released bytes (stacks included)")
	t.Note("emerg passes / retries / fails are the cascade counters; skips are slot refills abandoned after the last retry")
	return t, nil
}
