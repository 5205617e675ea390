package sim

import "fmt"

// Mutex is a simulated mutual-exclusion lock.
//
// Contention is resolved analytically: the mutex records the time at which
// its most recent critical section ends (busyUntil) and the thread that ran
// it. A Lock at simulated time t either proceeds immediately (t >= busyUntil)
// or advances the caller's clock to busyUntil, charging a handoff penalty
// when ownership changes hands. TryLock succeeds only when the lock's
// horizon has passed. Because the engine resumes threads in global time
// order and critical sections never span yield points, the horizon is always
// consistent when a thread observes it.
//
// A mutex can also be "held by a descheduled thread": when the engine's
// quantum preemption draw decides that a thread was interrupted inside this
// mutex's critical section, the mutex stays unavailable until that thread is
// scheduled again (heldBy != nil). This reproduces the uniprocessor ptmalloc
// behaviour where a preempted holder makes trylock fail for a whole
// scheduling latency — the event that causes glibc to spawn new arenas.
type Mutex struct {
	Name string

	machine *Machine

	busyUntil Time
	lastOwner int // thread ID of the last critical section, -1 initially

	// heldBy, when non-nil, marks the mutex as held by a thread that was
	// preempted mid-critical-section; cleared when that thread next runs.
	heldBy *Thread

	// hotUntil marks the mutex as recently contended. While hot, every
	// acquisition pays the handoff penalty even if the analytic horizon
	// happens to be clear: in the real interleaved schedule, ownership of a
	// saturated lock alternates every critical section, but batch-granular
	// simulation would otherwise only observe one change per batch.
	hotUntil Time

	// The lock-side counters (Acquisitions, Contended, ...).
	counters

	// holder tracks the thread currently inside Lock..Unlock for invariant
	// checking; the simulator is single-threaded so a plain field suffices.
	holder *Thread
	// holdStart is the holder's clock when it acquired the lock.
	holdStart Time
}

// NewMutex creates a mutex on machine m. Mutexes must be created through the
// machine so that contention costs come from its cost model.
func (m *Machine) NewMutex(name string) *Mutex {
	mu := &Mutex{Name: name, machine: m, lastOwner: -1}
	m.points = append(m.points, mu)
	return mu
}

// PointStats implements ContentionPoint.
func (mu *Mutex) PointStats() PointStats { return mu.counters }

// lockAt performs the analytic acquisition for thread t. It returns the
// number of cycles the caller waited.
func (mu *Mutex) lockAt(t *Thread) Time {
	if mu.holder != nil {
		panic(fmt.Sprintf("sim: mutex %q re-locked while held by %q within one batch (critical sections must not nest or span yields)",
			mu.Name, mu.holder.Name))
	}
	c := &t.machine.cfg.Costs
	t.Charge(c.MutexAtomic)

	wait := Time(0)
	if mu.heldBy == t {
		// We were marked as preempted inside this critical section and are
		// now re-entering the lock: the interrupted section is over.
		mu.clearDescheduled()
	}
	// A descheduled holder blocks us until it is scheduled again. We charge
	// the residual cost and clear the marking: the holder is assumed to
	// finish its interrupted critical section as soon as it runs.
	if mu.heldBy != nil && mu.heldBy != t {
		resume := maxTime(t.clock, mu.heldBy.clock) + c.DeschedResidual
		if resume > t.clock {
			wait += resume - t.clock
			t.clock = resume
		}
		mu.clearDescheduled()
	}
	if mu.busyUntil > t.clock {
		w := mu.busyUntil - t.clock
		w = min(w, mutexMaxWait)
		wait += w
		t.clock += w
		mu.Contended++
		mu.hotUntil = t.clock + c.MutexHotWindow
		if mu.lastOwner != t.id {
			t.Charge(c.MutexHandoff)
			mu.HandoffEvents++
		}
	} else if t.clock < mu.hotUntil {
		// Saturated lock: charge the per-critical-section handoff that the
		// batch-granular schedule cannot observe directly.
		t.Charge(c.MutexHandoff)
		mu.HandoffEvents++
		mu.hotUntil = t.clock + c.MutexHotWindow
	}
	mu.WaitCycles += wait
	mu.Acquisitions++
	mu.holder = t
	mu.holdStart = t.clock
	t.holding++
	return wait
}

// tryLockAt attempts a non-blocking acquisition for thread t.
func (mu *Mutex) tryLockAt(t *Thread) bool {
	c := &t.machine.cfg.Costs
	t.Charge(c.MutexAtomic)
	mu.TryAcquires++
	if mu.heldBy == t {
		mu.clearDescheduled()
	}
	if mu.heldBy != nil {
		mu.TryFailures++
		return false
	}
	if mu.busyUntil > t.clock {
		mu.TryFailures++
		return false
	}
	// A hot mutex is one that several threads contended at a finer grain
	// than the batch schedule resolves: trylock fails while the heat lasts,
	// which is the signal ptmalloc's arena sweep uses to move threads off
	// shared arenas (and, when everything is hot, to create a new arena).
	if t.clock < mu.hotUntil {
		mu.TryFailures++
		return false
	}
	mu.Acquisitions++
	mu.holder = t
	mu.holdStart = t.clock
	t.holding++
	return true
}

// unlockAt releases the mutex, committing the critical section
// [holdStart, now] to the busy horizon.
func (mu *Mutex) unlockAt(t *Thread) {
	if mu.holder != t {
		panic(fmt.Sprintf("sim: mutex %q unlocked by %q but held by %v", mu.Name, t.Name, mu.holderName()))
	}
	c := &t.machine.cfg.Costs
	t.Charge(c.MutexAtomic)
	held := t.clock - mu.holdStart
	t.holdCycles += held
	t.lastMutex = mu
	// With capped waits a hold may begin before the previous horizon;
	// never move the horizon backwards.
	mu.busyUntil = maxTime(mu.busyUntil, t.clock)
	mu.lastOwner = t.id
	mu.holder = nil
	t.holding--
}

func (mu *Mutex) holderName() string {
	if mu.holder == nil {
		return "<none>"
	}
	return mu.holder.Name
}

// markDescheduled records that thread t was preempted inside this mutex's
// critical section. Called by the engine's preemption draw.
func (mu *Mutex) markDescheduled(t *Thread) {
	mu.heldBy = t
	t.deschedHeld = append(t.deschedHeld, mu)
}

// clearDescheduled removes the descheduled-holder marking.
func (mu *Mutex) clearDescheduled() {
	if mu.heldBy == nil {
		return
	}
	held := mu.heldBy.deschedHeld
	for i, m := range held {
		if m == mu {
			mu.heldBy.deschedHeld = append(held[:i], held[i+1:]...)
			break
		}
	}
	mu.heldBy = nil
}
