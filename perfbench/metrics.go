package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
)

// metricSpec names one reported metric. The regression bounds of the
// end-to-end metrics live in BENCHMARK.json alone.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var (
	threadCaches = []malloc.Kind{malloc.KindThreadCache, malloc.KindLockFree, malloc.KindThreadCacheSvc}
	ptmallocOnly = []malloc.Kind{malloc.KindPTMalloc}
	lockFreeOnly = []malloc.Kind{malloc.KindLockFree}
	serviceOnly  = []malloc.Kind{malloc.KindThreadCacheSvc}
)

// hostLayers are the layers host CPU time is split into: the repository's
// modules plus the Go runtime's scheduler and collector.
var hostLayers = []string{"sim", "cache", "vm", "heap", "malloc", "scavenge", "bench", "runtime_sched", "runtime_gc"}

func perKind(name, unit, better string, kinds []malloc.Kind) []metricSpec {
	out := make([]metricSpec, len(kinds))
	for i, k := range kinds {
		out[i] = metricSpec{Name: name + "." + string(k), Unit: unit, Better: better}
	}
	return out
}

// endToEndSpecs lists the metrics of an untraced run.
func endToEndSpecs() []metricSpec {
	out := []metricSpec{
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "host_s", Unit: "s", Better: "lower"},
		{Name: "host_live_mb", Unit: "MB", Better: "lower"},
	}
	out = append(out, perKind("sim_mops", "Mcalls/s", "higher", designs)...)
	out = append(out, perKind("p99_cyc", "cyc", "lower", designs)...)
	return append(out, metricSpec{Name: "sim_rss_kb", Unit: "KB", Better: "lower"})
}

// perLayerSpecs lists the metrics of a traced run. A kind suffix appears
// only where the metric exists for that design.
func perLayerSpecs() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string, kinds []malloc.Kind) {
		out = append(out, perKind(name, unit, better, kinds)...)
	}
	add("sim.mutex_wait_cyc", "cyc", "lower", designs)
	add("sim.trylock_fail_ratio", "ratio", "lower", ptmallocOnly)
	add("sim.cas_fail_ratio", "ratio", "lower", lockFreeOnly)
	add("malloc.mag_hit_ratio", "ratio", "higher", threadCaches)
	add("malloc.depot_hit_ratio", "ratio", "higher", threadCaches)
	add("malloc.remote_frees", "count", "lower", threadCaches)
	add("malloc.svc_hit_ratio", "ratio", "higher", serviceOnly)
	add("malloc.parked_kb", "KB", "lower", threadCaches)
	add("malloc.call_p50_cyc", "cyc", "lower", designs)
	add("malloc.call_p999_cyc", "cyc", "lower", designs)
	add("malloc.tier_share.magazine", "ratio", "higher", threadCaches)
	add("malloc.tier_share.depot", "ratio", "lower", threadCaches)
	add("malloc.tier_share.arena", "ratio", "lower", designs)
	add("malloc.tier_share.vm", "ratio", "lower", designs)
	add("malloc.tier_share.service", "ratio", "lower", serviceOnly)
	add("vm.remote_access_cyc", "cyc", "lower", designs)
	add("vm.fill_c2c_cyc", "cyc", "lower", designs)
	add("vm.minor_faults", "count", "lower", designs)
	add("vm.refaults", "count", "lower", threadCaches)
	add("vm.syscalls", "count", "lower", designs)
	add("scavenge.bytes_released", "B", "higher", threadCaches)
	add("heap.arenas", "count", "lower", designs)
	add("cache.accesses", "count", "lower", designs)
	add("cache.hit_ratio", "ratio", "higher", designs)
	add("cache.owner_flips", "count", "lower", designs)
	for _, l := range hostLayers {
		out = append(out, metricSpec{Name: "host_self_s." + l, Unit: "s", Better: "lower"})
	}
	return append(out,
		metricSpec{Name: "host.ns_per_call", Unit: "ns", Better: "lower"},
		metricSpec{Name: "host.trace_overhead_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "bench.paper_err_pct", Unit: "%", Better: "lower"},
	)
}

// counter indexes the layer counters the benchmark reads.
type counter int

const (
	cMutexWait counter = iota // sim: cycles waited on mutexes
	cTryAcq
	cTryFail
	cCASAttempts
	cCASFails
	cMagHits // malloc
	cMagMisses
	cDepotHits
	cDepotMisses
	cRemoteFrees
	cSvcHits
	cSvcMisses
	cScavReleased    // scavenge: bytes handed back to the kernel
	cRemoteAccessCyc // vm
	cFillC2CCyc
	cMinorFaults
	cRefaults
	cSyscalls
	cCacheAccesses // cache
	cCacheHits
	cOwnerFlips
	nCounters
)

// counts is a reading of every counter; timed-phase figures are the
// difference of two readings.
type counts [nCounters]uint64

func (c counts) minus(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// snapCounts reads the counters. Every read is uncharged bookkeeping.
func snapCounts(e *env) counts {
	var c counts
	for _, p := range e.w.M.Points() {
		ps := p.PointStats()
		if _, ok := p.(*sim.CASPoint); ok {
			c[cCASAttempts] += ps.CASAttempts
			c[cCASFails] += ps.CASFails
			continue
		}
		c[cMutexWait] += uint64(ps.WaitCycles)
		c[cTryAcq] += ps.TryAcquires
		c[cTryFail] += ps.TryFailures
	}
	a := e.al.Stats()
	c[cMagHits], c[cMagMisses] = a.CacheHits, a.CacheMisses
	c[cDepotHits], c[cDepotMisses] = a.DepotHits, a.DepotMisses
	c[cRemoteFrees] = a.RemoteFrees
	c[cSvcHits], c[cSvcMisses] = a.SvcRefillHits, a.SvcRefillMisses
	c[cScavReleased] = a.ScavengeReuseBytes + a.ScavengeBinBytes + a.ScavengeTrimBytes
	v := e.as.Stats()
	c[cRemoteAccessCyc], c[cFillC2CCyc] = v.RemoteAccessCycles, v.FillC2CCycles
	c[cMinorFaults], c[cRefaults] = v.MinorFaults, v.Refaults
	c[cSyscalls] = v.SbrkCalls + v.MmapCalls + v.MunmapCalls + v.MadviseCalls
	for _, s := range e.w.Cache.Stats() {
		c[cCacheHits] += s.Hits
		c[cCacheAccesses] += s.Hits + s.ColdMisses + s.RemoteMisses + s.Upgrades
	}
	c[cOwnerFlips] = e.w.Cache.OwnerFlips
	return c
}

// pool accumulates one design's simulated results over a run's sub-seeds.
type pool struct {
	kind            malloc.Kind
	rounds          int
	calls           uint64
	busySec         float64
	lat             latDist
	rssKB, parkedKB float64 // sums of per-round means
	arenas          float64 // sum of per-round counts
	layer           counts
	tiers           map[string]uint64
	tierTotal       uint64
}

func (p *pool) add(r *designResult) {
	p.kind = r.kind
	p.rounds++
	p.calls += r.calls
	p.busySec += float64(r.busy) / (r.clockMHz * 1e6)
	p.lat = p.lat.merge(r.lat)
	p.rssKB += r.rssKB
	p.parkedKB += r.parkedKB
	p.arenas += float64(r.arenas)
	p.layer.add(r.layer)
	if r.tiers != nil {
		if p.tiers == nil {
			p.tiers = map[string]uint64{}
		}
		for k, v := range r.tiers {
			p.tiers[k] += v
		}
		p.tierTotal += r.tierTotal
	}
}

// fingerprint hashes every simulated observable of a design run, so a
// repeated sub-seed can be checked for exact reproduction.
func fingerprint(r *designResult) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.calls, r.busy, r.rssKB, r.parkedKB, r.arenas, r.layer, r.lat)
	return h.Sum64()
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simMetrics are the end-to-end simulated metrics over pooled sub-seeds:
// deterministic for a seed.
func simMetrics(pools []*pool) map[string]float64 {
	m := map[string]float64{}
	var rss float64
	for _, p := range pools {
		k := string(p.kind)
		m["sim_mops."+k] = float64(p.calls) / p.busySec / 1e6
		m["p99_cyc."+k] = float64(p.lat.quantile(0.99))
		rss += p.rssKB / float64(p.rounds)
	}
	m["sim_rss_kb"] = rss
	return m
}

// hostMetrics are a round's end-to-end host metrics, times at the reference
// machine speed.
func hostMetrics(rs []*designResult) map[string]float64 {
	m := map[string]float64{"setup_s": 0, "host_s": 0, "host_live_mb": 0}
	for _, r := range rs {
		m["setup_s"] += atReference(r.setupHost, r.probe)
		m["host_s"] += atReference(r.timedHost, r.probe)
		m["host_live_mb"] = math.Max(m["host_live_mb"], r.liveMB)
	}
	return m
}

// tierNames are the telemetry tiers a malloc or free can be served by in
// the benchmark's designs (no workload runs out of memory, so the
// emergency tier stays empty).
var tierNames = map[string]telemetry.Tier{
	"magazine": telemetry.TierMagazine, "depot": telemetry.TierDepot, "arena": telemetry.TierArena,
	"vm": telemetry.TierVM, "service": telemetry.TierService,
}

// tierCycles splits a design's timed malloc+free cycles by the tier that
// served each call. The tiers must sum exactly to the recorder's op totals,
// and the recorder must have seen exactly the calls the benchmark made.
func tierCycles(rec *telemetry.Recorder, calls uint64) (map[string]uint64, uint64, error) {
	rep := rec.Report()
	total := rep.TotalMallocCycles + rep.TotalFreeCycles
	if ops := rep.MallocOps + rep.FreeOps; ops != calls {
		return nil, 0, fmt.Errorf("telemetry saw %d calls, the benchmark made %d", ops, calls)
	}
	var sum uint64
	for _, t := range rep.Tiers {
		if t.Op == telemetry.OpMalloc.String() || t.Op == telemetry.OpFree.String() {
			sum += t.Cycles
		}
	}
	if sum != total {
		return nil, 0, fmt.Errorf("tier cycles sum to %d, op totals to %d", sum, total)
	}
	out := map[string]uint64{}
	for name, tier := range tierNames {
		out[name] = rec.TierCycles(telemetry.OpMalloc, tier) + rec.TierCycles(telemetry.OpFree, tier)
	}
	return out, total, nil
}

// layerMetrics are the simulated per-layer metrics over pooled sub-seeds,
// each counted over the designs' timed phases.
func layerMetrics(pools []*pool) map[string]float64 {
	m := map[string]float64{}
	for _, p := range pools {
		k, c := "."+string(p.kind), p.layer
		m["sim.mutex_wait_cyc"+k] = float64(c[cMutexWait])
		m["sim.trylock_fail_ratio"+k] = ratio(c[cTryFail], c[cTryAcq])
		m["sim.cas_fail_ratio"+k] = ratio(c[cCASFails], c[cCASAttempts])
		m["malloc.mag_hit_ratio"+k] = ratio(c[cMagHits], c[cMagHits]+c[cMagMisses])
		m["malloc.depot_hit_ratio"+k] = ratio(c[cDepotHits], c[cDepotHits]+c[cDepotMisses])
		m["malloc.remote_frees"+k] = float64(c[cRemoteFrees])
		m["malloc.svc_hit_ratio"+k] = ratio(c[cSvcHits], c[cSvcHits]+c[cSvcMisses])
		m["malloc.parked_kb"+k] = p.parkedKB / float64(p.rounds)
		m["malloc.call_p50_cyc"+k] = float64(p.lat.quantile(0.5))
		m["malloc.call_p999_cyc"+k] = float64(p.lat.quantile(0.999))
		for name := range tierNames {
			m["malloc.tier_share."+name+k] = ratio(p.tiers[name], p.tierTotal)
		}
		m["vm.remote_access_cyc"+k] = float64(c[cRemoteAccessCyc])
		m["vm.fill_c2c_cyc"+k] = float64(c[cFillC2CCyc])
		m["vm.minor_faults"+k] = float64(c[cMinorFaults])
		m["vm.refaults"+k] = float64(c[cRefaults])
		m["vm.syscalls"+k] = float64(c[cSyscalls])
		m["scavenge.bytes_released"+k] = float64(c[cScavReleased])
		m["heap.arenas"+k] = p.arenas / float64(p.rounds)
		m["cache.accesses"+k] = float64(c[cCacheAccesses])
		m["cache.hit_ratio"+k] = ratio(c[cCacheHits], c[cCacheAccesses])
		m["cache.owner_flips"+k] = float64(c[cOwnerFlips])
	}
	return m
}

// paperError runs benchmark 1's single-thread loop on the three hosts the
// paper gives a scalar for, scales it to the paper's 10M pairs, and returns
// the largest error in percent, with one line per host.
func paperError(seed uint64) (float64, []string, error) {
	const pairs, full = 20000, 10_000_000
	hosts := []struct {
		prof bench.Profile
		want float64
	}{
		{bench.DualPPro200(), bench.PaperScalars.PPro512},
		{bench.SunUltra2x400(), bench.PaperScalars.Ultra512},
		{bench.QuadXeon500(), bench.PaperScalars.Xeon512},
	}
	var worst float64
	var lines []string
	for _, h := range hosts {
		r, err := bench.RunBench1(bench.B1Config{Profile: h.prof, Threads: 1, Size: 512, Pairs: pairs, Runs: 1, Seed: seed})
		if err != nil {
			return 0, nil, fmt.Errorf("paper check on %s: %w", h.prof.Name, err)
		}
		got := bench.ScaleSeconds(r.All.Mean, pairs, full)
		pct := 100 * math.Abs(got-h.want) / h.want
		worst = math.Max(worst, pct)
		lines = append(lines, fmt.Sprintf("bench-1 %s: %.2f s simulated, paper %.2f s, error %.1f%%", h.prof.Name, got, h.want, pct))
	}
	return worst, lines, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
