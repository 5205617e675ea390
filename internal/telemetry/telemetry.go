// Package telemetry is the allocator's observability layer: per-op latency
// histograms keyed by size class, cycle attribution to the tier that served
// each operation, an epoch-driven time-series sampler, and a Chrome
// trace-event exporter.
//
// All timing is simulated virtual cycles read from per-thread clocks, so a
// Recorder is fully deterministic: two runs of the same seeded workload
// produce byte-identical reports and traces. Recording never charges cycles,
// takes no locks, and performs no control flow of its own, so enabling
// telemetry cannot perturb allocator behavior — replay goldens stay
// bit-identical with it on or off. When disabled the allocator holds a nil
// *Recorder and every method nil-checks, so the cost is one predictable
// branch per call site.
//
// Tier taxonomy (one tier per op, so per-tier cycles sum to the total):
//
//	magazine   — served from the calling thread's magazine (or parked there)
//	depot      — per-class transfer cache hit (or batch returned to it)
//	arena      — carved from / returned to an arena under its lock
//	vm         — mmap-direct path or any op whose chunk came from a syscall
//	emergency  — op completed (or failed) via the OOM emergency cascade
//	service    — handled through the per-node allocator service thread
//	             (mailbox swaps and the work the service thread does itself)
package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"

	"mtmalloc/internal/sim"
	"mtmalloc/internal/stats"
)

// Tier identifies which layer of the allocator hierarchy served an
// operation.
type Tier int

const (
	TierMagazine Tier = iota
	TierDepot
	TierArena
	TierVM
	TierEmergency
	TierService
	numTiers
)

var tierNames = [numTiers]string{"magazine", "depot", "arena", "vm", "emergency", "service"}

func (t Tier) String() string {
	if t >= 0 && t < numTiers {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// OpKind is the operation being timed.
type OpKind int

const (
	OpMalloc OpKind = iota
	OpFree
	// OpMailbox times service-thread mailbox work: a drained batch of posted
	// spans or a prefetched refill, recorded on the service thread. Keeping
	// it a distinct kind keeps malloc/free totals pure app-thread time.
	OpMailbox
	numOps
)

var opNames = [numOps]string{"malloc", "free", "mailbox"}

func (k OpKind) String() string {
	if k >= 0 && k < numOps {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Config tunes a Recorder. The zero value is usable: NewRecorder defaults
// the clock.
type Config struct {
	// ClockMHz converts virtual cycles to trace-event microseconds
	// (cycles per microsecond == MHz). Defaults to 500.
	ClockMHz float64
}

// The recorder's cadences: the time-series sampler fires every
// sampleInterval virtual cycles, and every opSpanEvery-th timed op also
// becomes a trace span (histograms still record every op).
const (
	sampleInterval sim.Time = 100_000
	opSpanEvery             = 64
)

// Sample is one point of the time series. The sample source fills every
// field except Time, which the Recorder stamps from the sampling thread's
// virtual clock.
type Sample struct {
	Time           sim.Time    `json:"time_cycles"`
	ResidentBytes  uint64      `json:"resident_bytes"`
	CommittedBytes uint64      `json:"committed_bytes"`
	CachedBytes    uint64      `json:"cached_bytes"`
	DepotBytes     uint64      `json:"depot_bytes"`
	ParkedBytes    uint64      `json:"parked_bytes"`
	PressureLevel  int         `json:"pressure_level"`
	LockWaitCycles uint64      `json:"lock_wait_cycles"`
	CASWaitCycles  uint64      `json:"cas_wait_cycles"`
	Arenas         []ArenaFrag `json:"arenas,omitempty"`
}

// ArenaFrag is the per-arena external-fragmentation gauge: resident bytes
// the arena holds from the OS versus bytes its callers actually have live.
type ArenaFrag struct {
	Index         int    `json:"arena"`
	ResidentBytes uint64 `json:"resident_bytes"`
	LiveBytes     uint64 `json:"live_bytes"`
}

type opClass struct {
	op    OpKind
	class uint32
}

// Recorder accumulates telemetry for one allocator instance. It is not
// safe for host-level concurrency, which is fine: simulated threads run
// one at a time under the engine.
type Recorder struct {
	cfg Config
	// sampleEvery and spanEvery are sampleInterval and opSpanEvery, except
	// where a same-package test narrows them.
	sampleEvery sim.Time
	spanEvery   uint64
	hists       map[opClass]*stats.LogHistogram

	tierCycles [numOps][numTiers]uint64
	tierOps    [numOps][numTiers]uint64
	opCount    uint64

	samples     []Sample
	source      func() Sample
	sampleArmed bool
	nextSample  sim.Time

	events []traceEvent
}

// NewRecorder returns a Recorder with cfg's zero fields defaulted.
func NewRecorder(cfg Config) *Recorder {
	if cfg.ClockMHz <= 0 {
		cfg.ClockMHz = 500
	}
	return &Recorder{
		cfg:         cfg,
		sampleEvery: sampleInterval,
		spanEvery:   opSpanEvery,
		hists:       make(map[opClass]*stats.LogHistogram),
	}
}

// Op records one completed malloc/free: cycles = t.Now() - start go into
// the (kind, class) histogram and are attributed wholly to tier. Every
// opSpanEvery-th op also becomes a trace span on the thread's track.
func (r *Recorder) Op(t *sim.Thread, kind OpKind, class uint32, tier Tier, start sim.Time) {
	if r == nil {
		return
	}
	cycles := uint64(t.Now() - start)
	key := opClass{kind, class}
	h := r.hists[key]
	if h == nil {
		h = &stats.LogHistogram{}
		r.hists[key] = h
	}
	h.Add(cycles)
	r.tierCycles[kind][tier] += cycles
	r.tierOps[kind][tier]++
	r.opCount++
	if r.opCount%r.spanEvery == 0 {
		r.events = append(r.events, traceEvent{
			Name: fmt.Sprintf("%s sz%d [%s]", kind, class, tier),
			Ph:   "X", Ts: r.usec(start), Dur: r.usec(sim.Time(cycles)),
			Pid: 1, Tid: t.ID(), Cat: "op",
		})
	}
}

// Instant records a zero-duration trace event on the thread's track
// (emergency cascades, OOM retries, rehomes, phase transitions).
func (r *Recorder) Instant(t *sim.Thread, name, cat string) {
	if r == nil {
		return
	}
	r.events = append(r.events, traceEvent{
		Name: name, Ph: "i", S: "t", Ts: r.usec(t.Now()),
		Pid: 1, Tid: t.ID(), Cat: cat,
	})
}

// Span records a completed duration event from start to the thread's
// current clock (scavenge passes, bench phases).
func (r *Recorder) Span(t *sim.Thread, name, cat string, start sim.Time) {
	if r == nil {
		return
	}
	r.events = append(r.events, traceEvent{
		Name: name, Ph: "X", Ts: r.usec(start), Dur: r.usec(t.Now() - start),
		Pid: 1, Tid: t.ID(), Cat: cat,
	})
}

// SetSampleSource installs the callback that snapshots allocator state for
// the time series. Sampling is disabled until a source is set.
func (r *Recorder) SetSampleSource(fn func() Sample) {
	if r == nil {
		return
	}
	r.source = fn
}

// MaybeSample records a time-series point if the calling thread's clock has
// crossed the sampling epoch. The first call only arms the sampler.
// Because the next epoch is always advanced past the firing clock, sample
// times are strictly increasing even though threads carry separate clocks.
func (r *Recorder) MaybeSample(t *sim.Thread) {
	if r == nil || r.source == nil {
		return
	}
	now := t.Now()
	if !r.sampleArmed {
		r.sampleArmed = true
		r.nextSample = now + r.sampleEvery
		return
	}
	if now < r.nextSample {
		return
	}
	s := r.source()
	s.Time = now
	r.samples = append(r.samples, s)
	for r.nextSample <= now {
		r.nextSample += r.sampleEvery
	}
}

// Samples returns the recorded time series.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	return r.samples
}

// Hist returns a merged histogram of every size class for the given op
// kind. The merge is exact, so quantiles over it are the whole-run
// distribution.
func (r *Recorder) Hist(kind OpKind) *stats.LogHistogram {
	merged := &stats.LogHistogram{}
	if r == nil {
		return merged
	}
	for key, h := range r.hists {
		if key.op == kind {
			merged.Merge(h)
		}
	}
	return merged
}

// TierCycles returns the cycles attributed to tier for the given op kind.
func (r *Recorder) TierCycles(kind OpKind, tier Tier) uint64 {
	if r == nil {
		return 0
	}
	return r.tierCycles[kind][tier]
}

// ClassLatency is the per-(op, size-class) latency row of a Report.
type ClassLatency struct {
	Op         string  `json:"op"`
	SizeClass  uint32  `json:"size_class"`
	Count      uint64  `json:"count"`
	MeanCycles float64 `json:"mean_cycles"`
	P50        uint64  `json:"p50_cycles"`
	P99        uint64  `json:"p99_cycles"`
	P999       uint64  `json:"p999_cycles"`
	MaxCycles  uint64  `json:"max_cycles"`
}

// TierSummary attributes ops and cycles to one tier for one op kind.
type TierSummary struct {
	Op     string `json:"op"`
	Tier   string `json:"tier"`
	Ops    uint64 `json:"ops"`
	Cycles uint64 `json:"cycles"`
}

// Report is the exportable summary: per-class latency percentiles, per-tier
// attribution, and the sampled time series. Building it is deterministic —
// map walks are sorted, and every number derives from virtual time.
type Report struct {
	ClockMHz           float64        `json:"clock_mhz"`
	MallocOps          uint64         `json:"malloc_ops"`
	FreeOps            uint64         `json:"free_ops"`
	MailboxOps         uint64         `json:"mailbox_ops,omitempty"`
	TotalMallocCycles  uint64         `json:"total_malloc_cycles"`
	TotalFreeCycles    uint64         `json:"total_free_cycles"`
	TotalMailboxCycles uint64         `json:"total_mailbox_cycles,omitempty"`
	Latency            []ClassLatency `json:"latency"`
	Tiers              []TierSummary  `json:"tiers"`
	Samples            []Sample       `json:"samples"`
}

// Report builds the summary from everything recorded so far.
func (r *Recorder) Report() Report {
	rep := Report{Samples: []Sample{}, Latency: []ClassLatency{}, Tiers: []TierSummary{}}
	if r == nil {
		return rep
	}
	rep.ClockMHz = r.cfg.ClockMHz
	rep.Samples = append(rep.Samples, r.samples...)

	keys := make([]opClass, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].op != keys[j].op {
			return keys[i].op < keys[j].op
		}
		return keys[i].class < keys[j].class
	})
	for _, k := range keys {
		h := r.hists[k]
		rep.Latency = append(rep.Latency, ClassLatency{
			Op: k.op.String(), SizeClass: k.class,
			Count: h.Total(), MeanCycles: h.Mean(),
			P50: h.Quantile(0.50), P99: h.Quantile(0.99), P999: h.Quantile(0.999),
			MaxCycles: h.Max(),
		})
	}
	for op := OpKind(0); op < numOps; op++ {
		for tier := Tier(0); tier < numTiers; tier++ {
			ops, cyc := r.tierOps[op][tier], r.tierCycles[op][tier]
			switch op {
			case OpMalloc:
				rep.TotalMallocCycles += cyc
				rep.MallocOps += ops
			case OpFree:
				rep.TotalFreeCycles += cyc
				rep.FreeOps += ops
			case OpMailbox:
				rep.TotalMailboxCycles += cyc
				rep.MailboxOps += ops
			}
			if ops == 0 && cyc == 0 {
				continue
			}
			rep.Tiers = append(rep.Tiers, TierSummary{
				Op: op.String(), Tier: tier.String(), Ops: ops, Cycles: cyc,
			})
		}
	}
	return rep
}

// ReportJSON marshals Report with stable formatting.
func (r *Recorder) ReportJSON() ([]byte, error) {
	return json.MarshalIndent(r.Report(), "", "  ")
}
