// Package scavenge is the reclamation subsystem: an epoch-driven decay
// engine that walks the allocator's caching tiers and returns idle memory to
// the operating system without giving back the throughput the tiers exist to
// buy.
//
// The throughput-oriented tiers of the thread-cache design — per-thread
// magazines, the central transfer cache, and the vm layer's mmap-region
// reuse cache — all park memory indefinitely and shed it only on overflow. A
// burst workload therefore leaves its high-water mark resident forever. The
// scavenger closes that gap the way tcmalloc's ReleaseToSpans / background
// release path and SpeedMalloc's off-critical-path housekeeping do: parked
// memory that has sat idle for at least one epoch decays by a configurable
// percentage per epoch, and what reaches the arenas is handed back to the
// kernel by trimming the resident tail of each arena's top chunk.
//
// Everything is driven by simulated virtual time, never by wall-clock or Go
// runtime state, so runs remain a pure function of the configuration seed.
// Passes run in one of two ways, sharing one epoch schedule:
//
//   - inline: allocator entry points call Tick, which runs a pass when the
//     calling thread's clock has crossed the epoch boundary (the work is
//     charged to that thread, like malloc_trim called from free);
//   - background: a dedicated simulated thread runs Background, sleeping
//     until the next epoch is due — the SpeedMalloc-style arrangement that
//     keeps housekeeping off the application's critical path and, crucially,
//     keeps decay going while every application thread is idle.
//
// The subsystem knows nothing about magazines or arenas: tiers register as
// Sources, and each pass sweeps them in registration order with a cutoff
// one epoch in the past. Order matters to the wiring (malloc registers
// magazines, then the depot, then the binned-page release, then the reuse
// aging, then the top trim, so memory cascades toward the arenas and then
// out to the kernel as it proves cold epoch over epoch).
package scavenge

import "mtmalloc/internal/sim"

// Policy is the scavenger's tuning, mirrored from malloc.CostParams.
// Tier-specific tuning (trim pads, binned-release floors, ...) lives with the
// sources' owner, not here: the engine hands sources only the cutoff and
// decay rate, so there is exactly one copy of each knob.
type Policy struct {
	// Interval is the epoch length in simulated cycles. A tier item must
	// have been idle for at least one full interval before it decays.
	Interval sim.Time
	// DecayPercent is the portion of an idle tier's parked memory released
	// per epoch (1-100; 100 drains an idle tier in one pass).
	DecayPercent int
}

// passWork is the fixed cycle charge of one pass, on top of whatever the
// sources themselves charge (lock traffic, page releases, ...).
const passWork sim.Time = 120

// Stats counts scavenger activity. Per-tier byte counters live in the
// owning allocator's Stats; these are the engine-level numbers.
type Stats struct {
	Epochs uint64 // passes run
	// BytesReleased sums every source's shed bytes. Sources in a cascade
	// overlap (a magazine chunk flushed to an arena may be trimmed out of
	// the same pass's top tail), so this measures decay activity, not RSS
	// returned — the owner's per-tier counters separate the two.
	BytesReleased uint64
	LastPass      sim.Time // virtual time of the most recent pass
}

// Source is one tier that can shed idle memory. Scavenge must release up to
// decayPercent of what the tier holds that has been idle since before
// cutoff, charge the calling thread for the work, and return the number of
// bytes it released. Implementations must iterate their state in a
// deterministic order (sorted keys, never raw map order).
type Source interface {
	Scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) uint64
}

// Scavenger runs decay passes over its registered sources on an epoch
// schedule in simulated time.
type Scavenger struct {
	policy  Policy
	sources []Source
	nextAt  sim.Time
	stats   Stats
	// driver, when set, is the only thread whose Ticks run passes. Per-thread
	// clocks in the simulator skew by up to a batch, so two actors sharing the
	// epoch schedule (an inline Tick and a background thread, say) can each
	// see the boundary as "due" and run two decay passes less than one
	// interval apart — double decay. Electing a single driver closes that
	// hazard; Force is exempt (teardown and emergency reclaim must always
	// work).
	driver *sim.Thread
}

// New creates a scavenger. Interval must be positive; DecayPercent is
// clamped into [1, 100].
func New(p Policy) *Scavenger {
	if p.Interval <= 0 {
		panic("scavenge: non-positive interval")
	}
	if p.DecayPercent < 1 {
		p.DecayPercent = 1
	}
	if p.DecayPercent > 100 {
		p.DecayPercent = 100
	}
	return &Scavenger{policy: p}
}

// Register appends a source. Passes sweep sources in registration order.
func (s *Scavenger) Register(src Source) {
	s.sources = append(s.sources, src)
}

// Policy returns the scavenger's tuning.
func (s *Scavenger) Policy() Policy { return s.policy }

// Stats returns a snapshot of the engine counters.
func (s *Scavenger) Stats() Stats { return s.stats }

// NextAt returns the virtual time the next pass becomes due (0 until the
// first Tick arms the schedule).
func (s *Scavenger) NextAt() sim.Time { return s.nextAt }

// SetDriver elects t as the single thread allowed to run scheduled passes:
// Ticks from every other thread return false without touching the schedule.
// Passing nil restores the default shared schedule where any thread's Tick
// may fire. The allocator service thread registers itself here so inline
// Ticks and leftover background loops cannot double-decay an epoch.
func (s *Scavenger) SetDriver(t *sim.Thread) { s.driver = t }

// Driver returns the elected driver thread, nil when the schedule is shared.
func (s *Scavenger) Driver() *sim.Thread { return s.driver }

// Tick runs a pass if the calling thread's clock has reached the next epoch
// boundary, charging the work to that thread. It reports whether a pass ran.
// The schedule anchors lazily: the first Tick only arms the first epoch one
// interval out, so a scavenger created during allocator construction does
// not fire a pass on the very first operation. Callers must not hold any
// simulated lock.
func (s *Scavenger) Tick(t *sim.Thread) bool {
	if s.driver != nil && t != s.driver {
		return false
	}
	if s.nextAt == 0 {
		s.nextAt = t.Now() + s.policy.Interval
		return false
	}
	if t.Now() < s.nextAt {
		return false
	}
	s.pass(t)
	return true
}

// Force runs a pass immediately regardless of the epoch schedule (thread
// teardown, tests). The next scheduled pass still moves one full interval
// out, so a forced pass never doubles up with an imminent scheduled one.
func (s *Scavenger) Force(t *sim.Thread) {
	s.pass(t)
}

// pass sweeps every source with a cutoff one interval in the past.
func (s *Scavenger) pass(t *sim.Thread) {
	cutoff := t.Now() - s.policy.Interval
	if cutoff < 0 {
		cutoff = 0
	}
	t.Charge(passWork)
	released := uint64(0)
	for _, src := range s.sources {
		released += src.Scavenge(t, cutoff, s.policy.DecayPercent)
	}
	s.stats.Epochs++
	s.stats.BytesReleased += released
	s.stats.LastPass = t.Now()
	s.nextAt = t.Now() + s.policy.Interval
}

// Background runs the scavenger as a dedicated simulated thread: it sleeps
// until the next epoch is due, runs the pass, and repeats until stop returns
// true. Inline Ticks from allocator threads share the same schedule, so a
// busy phase that keeps ticking simply leaves the background thread asleep;
// the background thread matters when every application thread goes idle —
// exactly when there is the most to reclaim. The owner must arrange for stop
// to become true (and then join the thread) before the simulation can end.
func (s *Scavenger) Background(t *sim.Thread, stop func() bool) {
	for !stop() {
		if wait := s.nextAt - t.Now(); wait > 0 {
			t.Sleep(wait)
			continue // re-check stop before running a pass
		}
		if !s.Tick(t) && s.nextAt <= t.Now() {
			// Another thread owns the schedule (SetDriver) and this loop may
			// never advance nextAt itself; sleep a full interval so the loop
			// cannot spin at one instant of virtual time.
			t.Sleep(s.policy.Interval)
		}
	}
}
