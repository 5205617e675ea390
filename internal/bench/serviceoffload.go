package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
)

// This file is experiment D10, the service-thread offload study. The
// offloaded variants (threadcache-svc, lockfree-svc) move magazine refill
// staging, remote-free draining and the scavenge cascade onto one pinned
// service thread per NUMA node; app threads exchange whole magazine spans
// with it through bounded mailboxes priced as cache-line transfers. The
// question the experiment asks is the one that motivates the design: how
// many cycles do the app threads themselves stop spending inside malloc
// when the bookkeeping runs elsewhere — and what does that cost in total
// throughput and in background-actor complexity?
//
// Telemetry separates the two sides cleanly: app-thread work inside the
// allocator is attributed to malloc/free ops (a mailbox hit lands in the
// "service" tier but still on the app thread's meter), while the service
// thread's own drains and prefetches are recorded as "mailbox" ops and
// excluded from the app total by construction.

// ExpServiceOffload (D10) sweeps the Larson server workload across 8-64
// threads on the 64-CPU 4-node host for the inline and offloaded variants
// of the two magazine designs, then re-runs the D3 phase-shift footprint
// workload with scavenging on to show the service thread acting as the one
// background actor per node (epoch-driven cascade instead of a dedicated
// scavenger thread).
func ExpServiceOffload(o Options) (*Table, error) {
	ops := o.scaled(4000, 200)
	prof := NUMAServerScale(4, 64)
	t := &Table{ID: "D10", Title: "service-thread offload, 64-CPU 4-node 500MHz host: inline vs offloaded magazine designs, Larson at 8-64 threads",
		Columns: []string{"allocator", "threads", "ops/s", "app cycles in malloc", "cycles/op", "svc cycles", "refill hit", "prefetch", "drains", "fallbacks", "epochs"}}

	type key struct {
		kind    malloc.Kind
		threads int
	}
	type obs struct {
		tput float64
		app  uint64
	}
	seen := make(map[key]obs)
	threadCounts := []int{8, 16, 32, 64}
	kinds := []malloc.Kind{malloc.KindThreadCache, malloc.KindThreadCacheSvc,
		malloc.KindLockFree, malloc.KindLockFreeSvc}
	for _, kind := range kinds {
		for _, n := range threadCounts {
			lcfg := LarsonConfig{Profile: prof, Threads: n, Slots: 200,
				MinSize: 10, MaxSize: 100, Ops: ops, Runs: 1, Seed: o.seed(),
				Rotate: true, Allocator: kind, Telemetry: true}
			lar, err := RunLarson(lcfg)
			if err != nil {
				return nil, fmt.Errorf("D10 %s larson %dt: %w", kind, n, err)
			}
			r := lar.Runs[0]
			rep := r.Telemetry.Report()
			app := rep.TotalMallocCycles + rep.TotalFreeCycles
			perOp := float64(app) / float64(rep.MallocOps+rep.FreeOps)
			s := r.AllocStats
			hit := "n/a"
			if att := s.SvcRefillHits + s.SvcRefillMisses; att > 0 {
				hit = fmt.Sprintf("%.1f%%", 100*float64(s.SvcRefillHits)/float64(att))
			}
			t.AddRow(string(kind), n, fmt.Sprintf("%.0f", r.Throughput),
				app, fmt.Sprintf("%.1f", perOp), rep.TotalMailboxCycles,
				hit, s.SvcPrefetches, s.SvcDrains, s.SvcFallbacks, s.SvcEpochs)
			seen[key{kind, n}] = obs{r.Throughput, app}
		}
	}

	// The head-to-head notes: per thread count, how far offloading cut the
	// cycles app threads spend inside malloc/free, and what it did to
	// throughput. The acceptance line is the threadcache pair at >= 8
	// threads: >= 25% fewer app cycles at >= 0.95x throughput.
	pairs := []struct{ inline, svc malloc.Kind }{
		{malloc.KindThreadCache, malloc.KindThreadCacheSvc},
		{malloc.KindLockFree, malloc.KindLockFreeSvc},
	}
	minCut, minTput := 100.0, 1e18
	for _, p := range pairs {
		for _, n := range threadCounts {
			in, sv := seen[key{p.inline, n}], seen[key{p.svc, n}]
			if in.app == 0 || in.tput == 0 {
				continue
			}
			cut := 100 * (1 - float64(sv.app)/float64(in.app))
			ratio := sv.tput / in.tput
			t.Note("%s %dt: app cycles in malloc %d -> %d (cut %.1f%%), throughput %.2fx inline",
				p.svc, n, in.app, sv.app, cut, ratio)
			if p.inline == malloc.KindThreadCache {
				if cut < minCut {
					minCut = cut
				}
				if ratio < minTput {
					minTput = ratio
				}
			}
		}
	}
	t.Note("acceptance: offloaded threadcache's worst point across 8-64 threads cuts app cycles %.1f%% (criterion >= 25%%) at %.2fx inline throughput (criterion >= 0.95x)",
		minCut, minTput)
	t.Note("the lock-free pair is the control: its inline design already pays no locks on the paths the service absorbs, so offload only re-prices depot traffic as mailbox traffic — small gains at low counts, a net loss once 16 threads share each service thread")

	// The phase-shift leg: D3's burst / idle / burst footprint workload with
	// scavenging on, inline (dedicated background scavenger thread) vs
	// offloaded (the per-node service threads drive the cascade from their
	// epoch loops — one background actor per node, no separate scavenger).
	fpOps := o.scaled(40000, 4000)
	scavCosts := prof.ScavengeCosts()
	fpConfigs := []struct {
		name string
		kind malloc.Kind
	}{
		{"inline+scav", malloc.KindThreadCache},
		{"offloaded+scav", malloc.KindThreadCacheSvc},
	}
	type fpObs struct {
		name string
		run  FootprintRun
	}
	var fpRuns []fpObs
	for _, c := range fpConfigs {
		cfg := DefaultFootprint(prof)
		cfg.Seed = o.seed()
		cfg.Allocator = c.kind
		costs := scavCosts
		cfg.Costs = &costs
		for i := range cfg.Phases {
			cfg.Phases[i].Ops = fpOps
		}
		run, err := RunFootprint(cfg)
		if err != nil {
			return nil, fmt.Errorf("D10 footprint %s: %w", c.name, err)
		}
		fpRuns = append(fpRuns, fpObs{c.name, run})
	}
	for _, r := range fpRuns {
		decay := "n/a (no common idle window)"
		if r.run.IdleTrough > 0 {
			decay = fmt.Sprintf("%.1f%% (peak %d KB -> trough %d KB)",
				r.run.DecayPercent, r.run.PeakFootprint/1024, r.run.IdleTrough/1024)
		}
		s := r.run.AllocStats
		t.Note("phase workload %s: idle decay %s; scavenge epochs %d; svc epochs %d; burst throughput %s ops/s",
			r.name, decay, s.ScavengeEpochs, s.SvcEpochs, fmtThroughputs(r.run.PhaseThroughput))
	}
	if len(fpRuns) == 2 && len(fpRuns[0].run.PhaseThroughput) > 1 && len(fpRuns[1].run.PhaseThroughput) > 1 {
		t.Note("phase workload: offloaded idle decay %.1f%% vs inline %.1f%%; post-idle burst %.2fx inline — the service epoch loop is the only cascade driver (no dedicated scavenger thread spawned)",
			fpRuns[1].run.DecayPercent, fpRuns[0].run.DecayPercent,
			fpRuns[1].run.PhaseThroughput[1]/fpRuns[0].run.PhaseThroughput[1])
	}

	t.Note("app cycles in malloc = telemetry malloc+free cycles on app threads; mailbox-hit refills land in the service tier but still bill the app thread; the service thread's own drain/prefetch work is recorded as mailbox ops and excluded")
	t.Note("offload: one service thread per node, pinned to the node's last CPU; a mailbox swap costs two atomic RMWs plus one remote-miss transfer per cache line of span metadata; watermark %d spans/class, epoch every %d cycles",
		malloc.DefaultServiceWatermark, malloc.DefaultServiceInterval)
	t.Note("larson ran 200 slots x %d replace ops per thread of 10-100B objects, slot arrays rotating between threads each round (the paper's bleeding handoff: most frees hit memory some other thread allocated); phase bursts ran %d replace ops per thread", ops, fpOps)
	if ops != 4000 {
		t.Note("workload scaled down from 4000 ops per thread")
	}
	return t, nil
}
