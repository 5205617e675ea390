package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
	"mtmalloc/internal/vm"
)

// FootprintConfig parameterizes experiment D3, the phase-shift footprint
// workload: every thread owns an array of object slots and runs a schedule
// of churn bursts separated by idle gaps, while a sampler thread records the
// process footprint over virtual time. The interesting question is what
// happens to the burst's high-water mark during the idle phase — the
// paper's throughput benchmarks never ask it, but a production allocator is
// judged on exactly this.
type FootprintConfig struct {
	Profile Profile
	Threads int
	// Slots small objects of Size bytes plus LargeSlots objects of
	// LargeSize bytes per thread; LargeSize above the mmap threshold drives
	// the vm reuse tier.
	Slots      int
	Size       uint32
	LargeSlots int
	LargeSize  uint32
	// Phases is the burst/idle schedule (Phase.Ops = replace operations per
	// thread in that burst; each burst also refills and then drains every
	// slot, so the parked tiers are at their fattest when the idle begins).
	Phases []Phase
	// SamplePeriodSeconds is the footprint sampling interval.
	SamplePeriodSeconds float64
	Seed                uint64
	// Allocator overrides the profile default when non-empty.
	Allocator malloc.Kind
	// Costs overrides the profile's allocator cost params when non-nil
	// (scavenger ablations).
	Costs *malloc.CostParams
}

// FootprintSample is one point of the footprint time series.
type FootprintSample struct {
	T             float64 // seconds since the workload started
	ResidentBytes uint64  // pages present in the address space
	ParkedBytes   uint64  // magazines + depot + mmap-reuse cache
}

// Footprint is resident plus parked: the decay metric of experiment D3.
func (s FootprintSample) Footprint() uint64 { return s.ResidentBytes + s.ParkedBytes }

// FootprintRun is one execution's observables.
type FootprintRun struct {
	Samples []FootprintSample
	// PhaseThroughput is ops/s per burst phase, over all threads (an op is
	// one malloc or free).
	PhaseThroughput []float64
	// PeakFootprint is the largest sampled footprint before the first idle
	// gap; IdleTrough the smallest sampled footprint inside it. DecayPercent
	// is how far the footprint fell between them.
	PeakFootprint uint64
	IdleTrough    uint64
	DecayPercent  float64
	VMStats       vm.Stats
	AllocStats    malloc.Stats
}

// DefaultFootprint returns the D3 shape: a burst, a long idle, and a second
// burst to measure the refault bill, on the quad Xeon.
func DefaultFootprint(p Profile) FootprintConfig {
	return FootprintConfig{
		Profile:             p,
		Threads:             4,
		Slots:               1500,
		Size:                512,
		LargeSlots:          4,
		LargeSize:           160 * 1024,
		Phases:              []Phase{{Ops: 40000, IdleSeconds: 0.08}, {Ops: 40000}},
		SamplePeriodSeconds: 0.004,
		Seed:                1,
		Allocator:           malloc.KindThreadCache,
	}
}

// RunFootprint executes one footprint run. Runs are deterministic per seed,
// so a single run per configuration is a complete measurement.
func RunFootprint(cfg FootprintConfig) (FootprintRun, error) {
	if cfg.Threads < 1 || cfg.Slots < 1 || len(cfg.Phases) == 0 || cfg.SamplePeriodSeconds <= 0 {
		return FootprintRun{}, fmt.Errorf("footprint: bad config %+v", cfg)
	}
	w := NewWorld(cfg.Profile.withAlloc(cfg.Allocator, cfg.Costs), cfg.Seed)
	var out FootprintRun
	err := w.Run(func(main *sim.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		al, as := inst.Alloc, inst.AS
		nSlots := cfg.Slots + cfg.LargeSlots
		sizeOf := func(idx int) uint32 {
			if idx < cfg.Slots {
				return cfg.Size
			}
			return cfg.LargeSize
		}

		// parked reads the tier-parked bytes; zero for designs without
		// parking tiers (the paper's allocators).
		parked := func() uint64 {
			if tc, ok := al.(interface{ ParkedBytes() uint64 }); ok {
				return tc.ParkedBytes()
			}
			return 0
		}

		start := main.Now()
		stop := false

		// The sampler observes footprint on a fixed virtual-time period. It
		// reads Go-side snapshots only, charging nothing: a /proc reader
		// whose cost is negligible next to the workload.
		sampler := main.Spawn("sampler", func(t *sim.Thread) {
			period := w.M.Cycles(cfg.SamplePeriodSeconds)
			for !stop {
				out.Samples = append(out.Samples, FootprintSample{
					T:             w.Seconds(t.Now() - start),
					ResidentBytes: as.Stats().ResidentBytes,
					ParkedBytes:   parked(),
				})
				t.Sleep(period)
			}
		})

		// The background scavenger keeps decay passes running through the
		// idle phases, when no allocator thread is ticking inline. With
		// offload on the per-node service threads are that background actor
		// (they drive the cascade from their epoch loop), so a dedicated
		// scavenger thread would be a second driver — the service engine
		// replaces it outright.
		svc := malloc.ServiceOf(al)
		svc.Start(main)
		var scavThread *sim.Thread
		if sc, ok := al.(interface{ Scavenger() *scavenge.Scavenger }); ok && svc == nil && sc.Scavenger() != nil {
			scavThread = main.Spawn("scavenger", func(t *sim.Thread) {
				sc.Scavenger().Background(t, func() bool { return stop })
			})
		}

		// burstEnd[i][p] and idleEnd[i][p] bracket thread i's phase p; the
		// decay window below is their intersection across threads.
		burstEnd := make([][]sim.Time, cfg.Threads)
		idleEnd := make([][]sim.Time, cfg.Threads)
		burstSecs := make([][]float64, cfg.Threads)
		workers := make([]*sim.Thread, cfg.Threads)
		for i := 0; i < cfg.Threads; i++ {
			i := i
			workers[i] = main.Spawn(fmt.Sprintf("churn-%d", i), func(t *sim.Thread) {
				al.AttachThread(t)
				defer al.DetachThread(t)
				rng := t.RNG()
				arr, err := al.Malloc(t, uint32(4*nSlots))
				if err != nil {
					panic(fmt.Sprintf("footprint: slot array: %v", err))
				}
				for _, ph := range cfg.Phases {
					phaseStart := t.Now()
					// Fill: the burst's working set goes live.
					for s := 0; s < nSlots; s++ {
						p, err := al.Malloc(t, sizeOf(s))
						if err != nil {
							panic(fmt.Sprintf("footprint: fill: %v", err))
						}
						as.Write32(t, arr+uint64(4*s), uint32(p))
					}
					// Churn: random replaces across small and large slots.
					for op := 0; op < ph.Ops; op++ {
						s := rng.Intn(nSlots)
						old := uint64(as.Read32(t, arr+uint64(4*s)))
						if err := al.Free(t, old); err != nil {
							panic(fmt.Sprintf("footprint: free: %v", err))
						}
						p, err := al.Malloc(t, sizeOf(s))
						if err != nil {
							panic(fmt.Sprintf("footprint: alloc: %v", err))
						}
						as.Write32(t, arr+uint64(4*s), uint32(p))
					}
					// Drain: everything goes back to the allocator, so the
					// burst's working set sits parked when the idle begins.
					for s := 0; s < nSlots; s++ {
						old := uint64(as.Read32(t, arr+uint64(4*s)))
						if err := al.Free(t, old); err != nil {
							panic(fmt.Sprintf("footprint: drain: %v", err))
						}
					}
					burstEnd[i] = append(burstEnd[i], t.Now())
					burstSecs[i] = append(burstSecs[i], w.Seconds(t.Now()-phaseStart))
					if ph.IdleSeconds > 0 {
						t.Sleep(w.M.Cycles(ph.IdleSeconds))
					}
					idleEnd[i] = append(idleEnd[i], t.Now())
				}
				if err := al.Free(t, arr); err != nil {
					panic(fmt.Sprintf("footprint: array free: %v", err))
				}
			})
		}
		for _, wk := range workers {
			main.Join(wk)
		}
		stop = true
		main.Join(sampler)
		if scavThread != nil {
			main.Join(scavThread)
		}
		svc.Stop(main)

		// Per-phase throughput: every fill/drain slot op plus every churn
		// replace counts two ops (a free and a malloc is two, a fill malloc
		// or drain free is one each).
		for p, ph := range cfg.Phases {
			var secs []float64
			for i := range burstSecs {
				secs = append(secs, burstSecs[i][p])
			}
			ops := float64(cfg.Threads * (2*nSlots + 2*ph.Ops))
			out.PhaseThroughput = append(out.PhaseThroughput, ops/stats.MeanOf(secs))
		}

		// Decay across the first idle gap: the window starts when the last
		// thread finished its burst and ends when the first thread woke.
		if cfg.Phases[0].IdleSeconds > 0 {
			var lo, hi sim.Time
			for i := 0; i < cfg.Threads; i++ {
				if burstEnd[i][0] > lo {
					lo = burstEnd[i][0]
				}
				if hi == 0 || idleEnd[i][0] < hi {
					hi = idleEnd[i][0]
				}
			}
			loS, hiS := w.Seconds(lo-start), w.Seconds(hi-start)
			for _, s := range out.Samples {
				// The high-water mark includes the idle window itself: the
				// footprint peaks right as the last drain ends, which is the
				// first idle sample.
				if s.T <= hiS && s.Footprint() > out.PeakFootprint {
					out.PeakFootprint = s.Footprint()
				}
				if s.T >= loS && s.T <= hiS {
					if out.IdleTrough == 0 || s.Footprint() < out.IdleTrough {
						out.IdleTrough = s.Footprint()
					}
				}
			}
			if out.PeakFootprint > 0 && out.IdleTrough > 0 {
				out.DecayPercent = 100 * (1 - float64(out.IdleTrough)/float64(out.PeakFootprint))
			}
		}
		out.VMStats = as.Stats()
		out.AllocStats = al.Stats()
	})
	return out, err
}

// ExpFootprint (D3) runs the phase-shift workload — burst, idle, burst —
// for four configurations: the paper's ptmalloc, the thread cache as PRs
// 1-2 left it (tiers park forever), the thread cache with the reclamation
// subsystem on (top-trim-only reclamation, the PR-3 state), and the same
// plus the PageHeap-style binned-chunk page release — the stage that reaches
// the memory multi-segment sub-arenas keep in bins where TrimTop never
// looks. The table is the footprint time series of each; the notes carry the
// per-phase throughputs and the idle-decay summary that the acceptance
// criteria read.
func ExpFootprint(o Options) (*Table, error) {
	prof := QuadXeon500()
	ops := o.scaled(40000, 4000)
	scavCosts := prof.ScavengeCosts() // the host's own tuning: 2ms epochs at 500 MHz, 50%/epoch
	binCosts := scavCosts
	binCosts.ScavengeMinBinBytes = 4096 // release any binned chunk with a whole idle page
	configs := []struct {
		name  string
		kind  malloc.Kind
		costs *malloc.CostParams
	}{
		{"ptmalloc", malloc.KindPTMalloc, nil},
		{"threadcache", malloc.KindThreadCache, nil},
		{"threadcache+scav", malloc.KindThreadCache, &scavCosts},
		{"threadcache+scav+binned", malloc.KindThreadCache, &binCosts},
	}
	t := &Table{ID: "D3", Title: "footprint under phase shifts, quad Xeon: burst / idle 80ms / burst, 4 threads, 512B + 160KB slots",
		Columns: []string{"config", "t(ms)", "resident(KB)", "parked(KB)", "footprint(KB)"}}
	type result struct {
		name string
		run  FootprintRun
	}
	var results []result
	for _, c := range configs {
		cfg := DefaultFootprint(prof)
		cfg.Seed = o.seed()
		cfg.Allocator = c.kind
		cfg.Costs = c.costs
		for i := range cfg.Phases {
			cfg.Phases[i].Ops = ops
		}
		run, err := RunFootprint(cfg)
		if err != nil {
			return nil, fmt.Errorf("D3 %s: %w", c.name, err)
		}
		for _, s := range run.Samples {
			t.AddRow(c.name, fmt.Sprintf("%.1f", s.T*1000),
				s.ResidentBytes/1024, s.ParkedBytes/1024, s.Footprint()/1024)
		}
		results = append(results, result{c.name, run})
	}
	for _, r := range results {
		decay := "n/a (thread drift left no common idle window)"
		if r.run.IdleTrough > 0 {
			decay = fmt.Sprintf("%.1f%% (peak %d KB -> trough %d KB)",
				r.run.DecayPercent, r.run.PeakFootprint/1024, r.run.IdleTrough/1024)
		}
		t.Note("%s: burst throughput %s ops/s; idle decay %s; refaults %d; scavenge epochs %d; bin releases %d (%d KB)",
			r.name, fmtThroughputs(r.run.PhaseThroughput), decay,
			r.run.VMStats.Refaults, r.run.AllocStats.ScavengeEpochs,
			r.run.AllocStats.Heap.BinReleases, r.run.AllocStats.ScavengeBinBytes/1024)
	}
	// The acceptance comparisons: post-idle burst throughput with reclamation
	// on vs off, and the decay each reclamation depth bought.
	tcOff, tcOn, tcBin := results[1].run, results[2].run, results[3].run
	if len(tcOff.PhaseThroughput) > 1 && len(tcOn.PhaseThroughput) > 1 {
		ratio := tcOn.PhaseThroughput[1] / tcOff.PhaseThroughput[1]
		t.Note("acceptance: threadcache+scav idle decay %.1f%% (criterion >= 50%%); post-idle burst throughput %.3fx of no-scavenger run (criterion within ~10%%)",
			tcOn.DecayPercent, ratio)
	}
	if len(tcOff.PhaseThroughput) > 1 && len(tcBin.PhaseThroughput) > 1 {
		ratio := tcBin.PhaseThroughput[1] / tcOff.PhaseThroughput[1]
		t.Note("acceptance: threadcache+scav+binned idle decay %.1f%% (criterion >= 75%%, top-trim-only managed %.1f%%); post-idle burst throughput %.3fx of no-scavenger run (criterion >= 0.95x)",
			tcBin.DecayPercent, tcOn.DecayPercent, ratio)
	}
	t.Note("footprint = resident pages + tier-parked bytes; scavenger: 2ms epochs, 50%%/epoch decay, 64KB trim pad; binned release floor 4KB, 256KB/arena resident bin pad")
	if ops != 40000 {
		t.Note("bursts ran %d replace ops per thread (scaled from 40000)", ops)
	}
	return t, nil
}

func fmtThroughputs(ts []float64) string {
	s := ""
	for i, v := range ts {
		if i > 0 {
			s += " / "
		}
		s += fmt.Sprintf("%.0f", v)
	}
	return s
}
