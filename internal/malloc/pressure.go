package malloc

import (
	"errors"
	"math"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// This file is the allocator's answer to ENOMEM, part of the op frame every
// kind runs: when a Malloc fails because the address space refused to grow
// — a commit limit (vm.SetMemLimit) or an injected fault — the frame runs
// an emergency reclamation cascade over every tier that parks memory and
// retries the malloc a bounded number of times before letting the failure
// through. Free is never retried. With no commit limit and no fault
// injection nothing here runs: no charges, no state, bit-identical numbers.
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
// full caching returns once it expires.

// IsNoMem reports whether err means the system ran out of memory — either
// the heap's wrap (heap.ErrNoMemory) or the vm's typed refusal (vm.ErrNoMem,
// from a commit limit or injected fault) anywhere in the chain.
func IsNoMem(err error) bool {
	return err != nil && (errors.Is(err, heap.ErrNoMemory) || errors.Is(err, vm.ErrNoMem))
}

// farFuture is a cutoff later than every stamp a run can produce: passing it
// to the age-gated release paths (EvictReuseBefore, ReleaseBinned, the depot
// scavenge) makes them treat everything as cold.
const farFuture = sim.Time(math.MaxInt64)

const (
	// maxOOMAttempts bounds the cascade-and-retry loop: one polite pass
	// (level 1), one strip-everything pass (level 2), then the failure
	// propagates.
	maxOOMAttempts = 2
	// pressureWindow is how long (virtual cycles) the degraded state
	// outlives the last failed allocation before caching returns to normal.
	pressureWindow = sim.Time(2_000_000)
)

// calm restores full caching once the pressure window has expired, and
// returns the time a guarded operation starts at.
func (b *base) calm(t *sim.Thread) sim.Time {
	now := t.Now()
	if b.level != 0 && now >= b.calmAt {
		b.level = 0
		b.as.SetReuseParkingDisabled(false)
	}
	return now
}

// rescue runs the cascade-and-retry loop after a malloc of size bytes
// failed with the out-of-memory error err, rerunning the unguarded malloc.
// With telemetry attached the whole rescue — failed first attempt, cascade
// passes, retries — is attributed as one malloc to the emergency tier, from
// the operation's start: recording inside the frame is muted for the
// duration so the retried malloc is not double-counted in whichever tier
// finally serves it.
func (b *base) rescue(t *sim.Thread, size uint32, err error, start sim.Time) (uint64, error) {
	b.tel.Instant(t, "emergency cascade", "pressure")
	b.muted = true
	var mem uint64
	for attempt := 1; attempt <= maxOOMAttempts && IsNoMem(err); attempt++ {
		escalated := attempt > b.level
		if escalated {
			b.level = attempt
			b.as.SetReuseParkingDisabled(attempt >= 2)
		}
		b.calmAt = t.Now() + pressureWindow
		b.stats.EmergencyScavenges++
		b.kind.reclaim(t, b.level, escalated)
		b.stats.OOMRetries++
		b.tel.Instant(t, "oom retry", "pressure")
		mem, err = b.malloc(t, size)
	}
	if IsNoMem(err) {
		mem = 0
		b.stats.OOMFails++
		b.tel.Instant(t, "oom fail", "pressure")
	}
	b.muted = false
	b.tel.Op(t, telemetry.OpMalloc, b.params.Request2Size(size), telemetry.TierEmergency, start)
	return mem, err
}

// reclaim is the generic cascade: evict every parked reuse region, then
// release the page-level free memory of every arena (binned-chunk
// interiors plus the top tail, pad zero — pressure keeps nothing warm).
func (b *base) reclaim(t *sim.Thread, _ int, _ bool) {
	_, _, err := b.as.EvictReuseBefore(t, farFuture)
	b.recordErr(err)
	for _, a := range b.arenas {
		t.Lock(a.Lock)
		a.ReleaseBinned(t, farFuture, 1, 0)
		a.TrimTop(t, 0)
		t.Unlock(a.Lock)
	}
}

// reclaim for the thread cache clamps every magazine class's high-water
// mark at one batch when the pressure level rises, then prepends the
// caching tiers to the generic cascade: the caller's magazine (every
// thread's at level 2) flushes into the arenas, the service mailboxes and
// every depot span drain, and then the page-level pass runs — the flushed
// chunks coalesce there and go out with the binned release.
func (tc *ThreadCache) reclaim(t *sim.Thread, level int, escalated bool) {
	if escalated {
		for _, tid := range tc.caches.keys() {
			c := tc.caches.get(tid)
			for _, k := range c.classes.keys() {
				if cl := c.classes.get(k); cl.mark > tc.batch {
					cl.mark = tc.batch
				}
			}
		}
	}
	for _, tid := range tc.caches.keys() {
		if level < 2 && tid != t.ID() {
			continue
		}
		c := tc.caches.get(tid)
		for _, k := range c.classes.keys() {
			cl := c.classes.get(k)
			if len(cl.entries)+len(cl.remote) == 0 {
				continue
			}
			victims := append(cl.entries, cl.remote...)
			cl.entries, cl.remote = nil, nil
			cl.streak = 0
			tc.recordErr(tc.flush(t, victims))
		}
	}
	if tc.svc != nil {
		// Spans parked in service mailboxes are reclaimable memory too:
		// flush them ahead of the depot drain so they coalesce with it.
		tc.svc.reclaim(t)
	}
	tc.drainDepots(t, farFuture, 100)
	tc.base.reclaim(t, level, escalated)
}
