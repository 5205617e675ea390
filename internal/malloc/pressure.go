package malloc

import (
	"errors"
	"math"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// This file is the allocator's answer to ENOMEM. Every design malloc.New
// constructs is wrapped in a resilient shell: when an allocation fails
// because the address space refused to grow — a commit limit
// (vm.SetMemLimit) or an injected fault — the shell runs an emergency
// reclamation cascade over every tier that parks memory and retries the
// allocation a bounded number of times before letting the failure through.
//
// The cascade runs the same direction as the scavenger's idle-decay sweep
// (magazines -> depot -> binned pages -> reuse cache -> arena-top trim), but
// with age gates forced open: pressure does not care how warm a parked chunk
// is, only that it is not live. Level 1 is the polite pass — the caller's
// own magazine, the depots, and everything already free at the page level.
// Level 2, reached when a retry fails again or pressure persists, strips
// every thread's magazine and disables reuse parking.
//
// After an emergency pass the allocator stays degraded for pressureWindow
// cycles of virtual time: magazine high-water marks are clamped at one
// batch (growOnStreak holds them there) and, at level 2, munmapped regions
// stop parking in the reuse cache. The window slides on every failure and
// the shell restores full caching once it expires.

// isNoMem reports whether err means the system ran out of memory — either
// the heap's wrap (heap.ErrNoMemory) or the vm's typed refusal (vm.ErrNoMem,
// from a commit limit or injected fault) anywhere in the chain.
func isNoMem(err error) bool {
	return err != nil && (errors.Is(err, heap.ErrNoMemory) || errors.Is(err, vm.ErrNoMem))
}

// farFuture is a cutoff later than every stamp a run can produce: passing it
// to the age-gated release paths (EvictReuseBefore, ReleaseBinned, the depot
// scavenge) makes them treat everything as cold.
const farFuture = sim.Time(math.MaxInt64)

const (
	// maxOOMAttempts bounds the cascade-and-retry loop: one polite pass,
	// one strip-everything pass, then the failure propagates.
	maxOOMAttempts = 2
	// pressureWindow is how long (virtual cycles) the degraded state
	// outlives the last failed allocation before caching returns to normal.
	pressureWindow = sim.Time(2_000_000)
)

// reclaimer is the hook the resilient shell drives. Every design embeds
// *base, whose generic cascade covers the tiers all designs share;
// ThreadCache overrides it to flush magazines and drain depots first.
type reclaimer interface {
	emergencyReclaim(t *sim.Thread, level int) uint64
	setPressure(on bool)
	baseOf() *base
}

func (b *base) baseOf() *base { return b }

// setPressure is a no-op for designs without adaptive magazines;
// ThreadCache overrides it to clamp its high-water marks.
func (b *base) setPressure(on bool) {}

// emergencyReclaim is the generic cascade: evict every parked reuse region,
// then release the page-level free memory of every arena (binned-chunk
// interiors plus the top tail, pad zero — pressure keeps nothing warm).
// Returns the bytes handed back to the kernel.
func (b *base) emergencyReclaim(t *sim.Thread, level int) uint64 {
	total := uint64(0)
	if _, bytes, err := b.as.EvictReuseBefore(t, farFuture); err != nil {
		b.recordErr(err)
	} else {
		total += bytes
	}
	for _, a := range b.arenas {
		t.Lock(a.Lock)
		total += a.ReleaseBinned(t, farFuture, 1, 0)
		total += a.TrimTop(t, 0)
		t.Unlock(a.Lock)
	}
	return total
}

// emergencyReclaim for the thread cache prepends the caching tiers: the
// caller's magazine (every thread's at level 2) flushes into the arenas,
// every depot span drains, and then the generic page-level cascade runs —
// the flushed chunks coalesce there and go out with the binned release.
func (tc *ThreadCache) emergencyReclaim(t *sim.Thread, level int) uint64 {
	total := uint64(0)
	flushCache := func(c *tcache) {
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			n := len(cl.entries) + len(cl.remote)
			if n == 0 {
				continue
			}
			victims := append(cl.entries, cl.remote...)
			cl.entries, cl.remote = nil, nil
			cl.streak = 0
			total += uint64(n) * uint64(cl.csz)
			if err := tc.flush(t, victims); err != nil {
				tc.recordErr(err)
			}
		}
	}
	if level >= 2 {
		for _, tid := range tc.caches.keys() {
			flushCache(tc.caches.get(tid))
		}
	} else if c := tc.caches.get(t.ID()); c != nil {
		flushCache(c)
	}
	if tc.svc != nil {
		// Spans parked in service mailboxes are reclaimable memory too:
		// flush them ahead of the depot drain so they coalesce with it.
		total += tc.svc.reclaim(t)
	}
	for _, depot := range tc.depots {
		spans, chunks, bytes := depot.scavenge(t, farFuture, 100)
		if len(spans) == 0 {
			continue
		}
		victims := make([]tcEntry, 0, chunks)
		for _, span := range spans {
			victims = append(victims, span...)
		}
		if err := tc.flush(t, victims); err != nil {
			tc.recordErr(err)
		}
		total += bytes
	}
	return total + tc.base.emergencyReclaim(t, level)
}

// setPressure clamps every magazine class's high-water mark at one batch
// while pressure holds (growOnStreak keeps them there); marks regrow
// normally once the window clears.
func (tc *ThreadCache) setPressure(on bool) {
	tc.pressured = on
	if !on {
		return
	}
	for _, tid := range tc.caches.keys() {
		c := tc.caches.get(tid)
		for _, k := range c.classes.keys() {
			if cl := c.classes.get(k); cl.mark > tc.batch {
				cl.mark = tc.batch
			}
		}
	}
}

// resilient wraps a design with the emergency cascade. With no commit limit
// and no fault injection it is a pure pass-through: no charges, no state,
// bit-identical numbers.
type resilient struct {
	Allocator
	rec reclaimer

	level  int      // degradation gauge: 0 calm, 1 clamped, 2 parking off
	calmAt sim.Time // virtual time at which the pressure state clears
}

// newResilient wraps al; an allocator without the package-internal hooks
// (none of the built-in kinds) passes through unwrapped.
func newResilient(al Allocator) Allocator {
	rec, ok := al.(reclaimer)
	if !ok {
		return al
	}
	return &resilient{Allocator: al, rec: rec}
}

// maybeCalm restores full caching once the pressure window has expired.
func (r *resilient) maybeCalm(t *sim.Thread) {
	if r.level == 0 || t.Now() < r.calmAt {
		return
	}
	r.level = 0
	r.rec.setPressure(false)
	r.rec.baseOf().as.SetReuseParkingDisabled(false)
}

// escalate raises the degradation level for this attempt and slides the
// pressure window.
func (r *resilient) escalate(t *sim.Thread, attempt int) {
	level := attempt
	if level > 2 {
		level = 2
	}
	if level > r.level {
		r.level = level
		r.rec.setPressure(true)
		if r.level >= 2 {
			r.rec.baseOf().as.SetReuseParkingDisabled(true)
		}
	}
	r.calmAt = t.Now() + pressureWindow
}

// retry runs the cascade-and-retry loop after op failed with an
// out-of-memory error. With telemetry attached the whole rescue — failed
// first attempt, cascade passes, retries — is attributed as one op to the
// emergency tier (start is the wrapped entry's begin time): recording
// inside the design is muted for the duration so the retried op is not
// double-counted in whichever tier finally serves it.
func (r *resilient) retry(t *sim.Thread, err error, kind telemetry.OpKind, class uint32, start sim.Time, op func() (uint64, error)) (uint64, error) {
	b := r.rec.baseOf()
	if b.tel != nil {
		b.tel.Instant(t, "emergency cascade", "pressure")
		b.telSuppress = true
		defer func() {
			b.telSuppress = false
			b.tel.Op(t, kind, class, telemetry.TierEmergency, start)
		}()
	}
	for attempt := 1; attempt <= maxOOMAttempts; attempt++ {
		r.escalate(t, attempt)
		b.stats.EmergencyScavenges++
		b.stats.EmergencyBytes += r.rec.emergencyReclaim(t, r.level)
		b.stats.OOMRetries++
		if b.tel != nil {
			b.tel.Instant(t, "oom retry", "pressure")
		}
		mem, rerr := op()
		if rerr == nil || !isNoMem(rerr) {
			return mem, rerr
		}
		err = rerr
	}
	b.stats.OOMFails++
	if b.tel != nil {
		b.tel.Instant(t, "oom fail", "pressure")
	}
	return 0, err
}

func (r *resilient) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	r.maybeCalm(t)
	start := t.Now()
	mem, err := r.Allocator.Malloc(t, size)
	if err == nil || !isNoMem(err) {
		return mem, err
	}
	b := r.rec.baseOf()
	return r.retry(t, err, telemetry.OpMalloc, b.params.Request2Size(size), start,
		func() (uint64, error) { return r.Allocator.Malloc(t, size) })
}

// Realloc retries the whole operation: a failed realloc leaves the original
// chunk intact, so rerunning it after a cascade pass is safe.
func (r *resilient) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	r.maybeCalm(t)
	start := t.Now()
	np, err := r.Allocator.Realloc(t, mem, size)
	if err == nil || !isNoMem(err) {
		return np, err
	}
	return r.retry(t, err, telemetry.OpMalloc, 0, start,
		func() (uint64, error) { return r.Allocator.Realloc(t, mem, size) })
}

func (r *resilient) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	r.maybeCalm(t)
	start := t.Now()
	mem, err := r.Allocator.Calloc(t, size)
	if err == nil || !isNoMem(err) {
		return mem, err
	}
	b := r.rec.baseOf()
	return r.retry(t, err, telemetry.OpMalloc, b.params.Request2Size(size), start,
		func() (uint64, error) { return r.Allocator.Calloc(t, size) })
}

// Stats adds the live pressure gauge to the wrapped design's counters (the
// Emergency*/OOM* counters live in the shared base stats already).
func (r *resilient) Stats() Stats {
	s := r.Allocator.Stats()
	s.PressureLevel = r.level
	return s
}

// ParkedBytes and Scavenger forward the optional introspection interfaces
// the bench harness type-asserts for; designs without the tier report zero
// parked bytes and a nil scavenger, same as before wrapping.
func (r *resilient) ParkedBytes() uint64 {
	if p, ok := r.Allocator.(interface{ ParkedBytes() uint64 }); ok {
		return p.ParkedBytes()
	}
	return 0
}

// SharedMagazineLines forwards the line-aware placement probe (designs
// without magazines report zero: nothing is parked, nothing can share).
func (r *resilient) SharedMagazineLines() int {
	if p, ok := r.Allocator.(interface{ SharedMagazineLines() int }); ok {
		return p.SharedMagazineLines()
	}
	return 0
}

func (r *resilient) Scavenger() *scavenge.Scavenger {
	if p, ok := r.Allocator.(interface{ Scavenger() *scavenge.Scavenger }); ok {
		return p.Scavenger()
	}
	return nil
}

// Service forwards the offload engine so ServiceOf sees through the shell.
func (r *resilient) Service() *Service {
	if p, ok := r.Allocator.(interface{ Service() *Service }); ok {
		return p.Service()
	}
	return nil
}

var _ Allocator = (*resilient)(nil)
