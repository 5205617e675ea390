package sim

// This file is the contention-point abstraction: the machine prices every
// synchronization hot spot through one of two analytic models.
//
//   - The mutex model (Mutex, mutex.go): a blocking critical section. The
//     point keeps a busy horizon; a contending acquirer advances its clock to
//     the horizon (capped) and pays handoff penalties while the lock is hot.
//     Waiting costs wall time and a preempted holder stalls everyone
//     (DeschedResidual) — the convoy physics the paper measures.
//
//   - The CAS model (CASPoint, below): an optimistic retry loop (Treiber
//     push/pop, bitmap claim). Nobody ever blocks or holds
//     anything across a preemption; contention instead costs failed
//     compare-and-swap attempts, each one a cache-line transfer plus a
//     reread. The price is keyed on a concurrent-writer estimate: the number
//     of other threads that committed an update to this point within
//     casHotWindow cycles of the caller's clock. Among w+1 writers racing
//     for one word, a successful CAS loses on average about half the races
//     in flight, so the caller is charged ceil(w/2) failed attempts of
//     4*Costs.MutexAtomic each (at most defaultCASMaxRetries) on top of
//     the successful one's Costs.MutexAtomic.
//
// Both primitives implement ContentionPoint, so harnesses can enumerate a
// machine's synchronization points and read one stats shape regardless of
// the pricing behind each. The mutex designs' charge sequences are untouched
// by this abstraction: Mutex only gained the read-only stats methods.

// PointStats is the common counter shape every contention point exposes.
// Mutex-priced points fill the lock-side fields and leave the CAS side zero;
// CAS-priced points do the opposite.
type PointStats struct {
	// Lock-model counters.
	Acquisitions  uint64 // successful entries (lock acquires / CAS op completions)
	Contended     uint64 // entries that paid a contention penalty
	TryAcquires   uint64
	TryFailures   uint64
	WaitCycles    Time // cycles spent waiting or retrying
	HandoffEvents uint64
	// CAS-model counters.
	CASAttempts uint64 // total compare-and-swap attempts, failures included
	CASFails    uint64 // failed attempts (retries) charged by the model
}

// ContentionPoint is one synchronization hot spot priced by the machine's
// contention model — a Mutex or a CASPoint.
type ContentionPoint interface {
	// PointStats returns the point's counters in the common shape.
	PointStats() PointStats
}

// The CAS model's constants. A CAS costs Costs.MutexAtomic and a failed
// attempt 4*Costs.MutexAtomic — a cache-line transfer plus the reread and
// recompute before retrying, the hardware half of MutexHandoff without any
// scheduler involvement. casHotWindow bounds the concurrent-writer
// estimate: a thread whose last committed update lies within this many
// cycles of the caller's clock (either side — committed batches skew clocks
// both ways) counts as racing, a few critical sections.
// defaultCASMaxRetries caps the retries charged to one successful CAS.
const (
	casHotWindow         Time = 4000
	defaultCASMaxRetries      = 8
)

// CASPoint is a word updated by an optimistic compare-and-swap loop: a
// Treiber stack head or a buddy-bitmap word.
// See the file comment for the pricing model. Like mutexes, CAS points are
// Go-side bookkeeping plus analytic charges: the word itself lives wherever
// the caller keeps it, and the point only prices the synchronization.
type CASPoint struct {
	Name string

	machine *Machine

	// writers records, per thread ID, the clock at which that thread last
	// committed an update here. The concurrent-writer estimate counts other
	// threads whose entry lies within casHotWindow of the caller's clock
	// (two-sided: committed batches put other threads' clocks both ahead of
	// and behind the caller's).
	writers map[int]Time

	// Statistics. Updates counts completed operations; Attempts counts
	// hardware CAS attempts including the charged retries.
	Updates      uint64
	Attempts     uint64
	Fails        uint64
	ContendedOps uint64
	RetryCycles  Time
}

// NewCASPoint creates a CAS-priced contention point on machine m and
// registers it alongside the machine's mutexes.
func (m *Machine) NewCASPoint(name string) *CASPoint {
	p := &CASPoint{Name: name, machine: m, writers: make(map[int]Time)}
	m.points = append(m.points, p)
	return p
}

// PointStats implements ContentionPoint.
func (p *CASPoint) PointStats() PointStats {
	return PointStats{
		Acquisitions: p.Updates,
		Contended:    p.ContendedOps,
		WaitCycles:   p.RetryCycles,
		CASAttempts:  p.Attempts,
		CASFails:     p.Fails,
	}
}

// concurrentWriters estimates how many other threads are racing updates on
// this point right now: the count of other threads whose last committed
// update lies within casHotWindow cycles of the caller's clock. The loop
// only counts — map order cannot leak into the simulation.
func (p *CASPoint) concurrentWriters(t *Thread) int {
	n := 0
	for id, at := range p.writers {
		if id == t.id {
			continue
		}
		d := t.clock - at
		if d < 0 {
			d = -d
		}
		if d <= casHotWindow {
			n++
		}
	}
	return n
}

// update prices one committed update by t: the successful CAS plus the
// retries its concurrent writers cost.
func (p *CASPoint) update(t *Thread) {
	atomic := p.machine.cfg.Costs.MutexAtomic
	t.Charge(atomic)
	p.Updates++
	p.Attempts++
	w := p.concurrentWriters(t)
	if w > 0 {
		retries := min((w+1)/2, p.machine.casMaxRetries)
		p.Attempts += uint64(retries)
		p.Fails += uint64(retries)
		pen := Time(retries) * 4 * atomic
		t.Charge(pen)
		p.RetryCycles += pen
		p.ContendedOps++
	}
	p.writers[t.id] = t.clock
}
