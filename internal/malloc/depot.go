package malloc

import (
	"fmt"

	"mtmalloc/internal/sim"
)

// depot is the tier-2 central transfer cache between the per-thread
// magazines and the page backend: a per-size-class store of chunk spans.
// Magazine misses try the depot before touching an arena or the buddy;
// magazine flushes and thread detaches donate whole spans instead of
// freeing chunk by chunk, so the cross-thread free traffic of benchmark 2
// becomes one depot exchange per span. Each class parks at most capBytes
// bytes; overflow falls through to the page backend, which keeps the depot
// from becoming an unbounded leak. Classes remember when they were last
// exchanged, so the scavenger can tell cold classes from hot ones.
//
// Chunks in the depot look allocated from their arena's point of view (the
// same invariant the magazines rely on), and every entry still records its
// owning arena, so spans may mix arenas freely and later flushes route
// correctly.
//
// The policy is the same for every kind; only the synchronization pricing
// of a class differs, picked by the kind:
//
//   - the mutex kinds put each class behind a sim.Mutex (the tcmalloc
//     shape): every get, put and scavenge takes the lock before its
//     depotXferWork charge and releases it at the end, misses and refusals
//     included;
//   - the lock-free kinds keep each class on a Treiber stack whose head is a
//     sim.CASPoint: a successful pop or push is one CAS after the
//     depotXferWork charge, an empty get or a refused put pays none, and
//     nobody ever blocks — a preempted thread mid-exchange cannot convoy the
//     class the way a preempted mutex holder does, which is the property
//     experiment D5 measures. A scavenge detaches the whole stack with one
//     CAS (the snapshot is then private to the scavenger, so no torn
//     count-vs-list state is observable) and re-attaches the survivors with
//     a second.
type depot struct {
	mach     *sim.Machine
	name     string
	lockFree bool
	classes  denseTable[*depotClass] // keyed by classSlot
	capBytes int64
	stats    *Stats
}

// depotClass is one size class of the depot: its synchronization point
// (lock for the mutex kinds, head for the lock-free ones), its parked spans
// (top of stack last), parked bytes, and the last virtual time a span moved
// through it. decayRem carries the scavenger's fractional decay share in
// hundredths of a span, so small classes decay at the configured rate
// instead of rounding to all-or-nothing each epoch.
type depotClass struct {
	lock     *sim.Mutex
	head     *sim.CASPoint
	spans    [][]tcEntry
	bytes    int64
	lastUse  sim.Time
	decayRem int
}

func newDepot(m *sim.Machine, name string, lockFree bool, capBytes int64, stats *Stats) *depot {
	return &depot{
		mach:     m,
		name:     name,
		lockFree: lockFree,
		capBytes: capBytes,
		stats:    stats,
	}
}

// classOf returns (creating if needed) the depot class for chunk size csz.
// Creation is Go-side bookkeeping; the simulated cost is the point traffic.
func (d *depot) classOf(csz uint32) *depotClass {
	dc := d.classes.get(classSlot(csz))
	if dc == nil {
		dc = &depotClass{}
		if d.lockFree {
			dc.head = d.mach.NewCASPoint(fmt.Sprintf("%s.lfdepot.%d", d.name, csz))
		} else {
			dc.lock = d.mach.NewMutex(fmt.Sprintf("%s.depot.%d", d.name, csz))
		}
		d.classes.set(classSlot(csz), dc)
	}
	return dc
}

// enter opens an exchange with class dc: the class lock, if it has one,
// then the depotXferWork charge.
func (d *depot) enter(t *sim.Thread, dc *depotClass) {
	if dc.lock != nil {
		t.Lock(dc.lock)
	}
	t.Charge(depotXferWork)
}

// swing prices one change of the class's span stack: a CAS on the head of
// a lock-free class, nothing more under a lock.
func (d *depot) swing(t *sim.Thread, dc *depotClass) {
	if dc.head != nil {
		t.CAS(dc.head)
	}
}

// leave closes an exchange opened by enter.
func (d *depot) leave(t *sim.Thread, dc *depotClass) {
	if dc.lock != nil {
		t.Unlock(dc.lock)
	}
}

// get pops one span for chunk size csz. The returned span is owned by the
// caller.
func (d *depot) get(t *sim.Thread, csz uint32) ([]tcEntry, bool) {
	dc := d.classOf(csz)
	d.enter(t, dc)
	defer d.leave(t, dc)
	dc.lastUse = t.Now()
	n := len(dc.spans)
	if n == 0 {
		d.stats.DepotMisses++
		return nil, false
	}
	d.swing(t, dc)
	span := dc.spans[n-1]
	dc.spans = dc.spans[:n-1]
	dc.bytes -= int64(len(span)) * int64(csz)
	d.stats.DepotHits++
	return span, true
}

// put donates a span to class csz. The depot keeps the slice, so callers
// must hand over ownership. Returns false — without keeping the span — when
// the span would push the class past its byte cap.
func (d *depot) put(t *sim.Thread, csz uint32, span []tcEntry) bool {
	if len(span) == 0 {
		return true
	}
	dc := d.classOf(csz)
	d.enter(t, dc)
	defer d.leave(t, dc)
	dc.lastUse = t.Now()
	spanBytes := int64(len(span)) * int64(csz)
	if dc.bytes+spanBytes > d.capBytes {
		d.stats.DepotOverflows++
		return false
	}
	d.swing(t, dc)
	dc.spans = append(dc.spans, span)
	dc.bytes += spanBytes
	d.stats.DepotDonates++
	return true
}

// scavenge removes decayPercent of the spans from every class that has not
// exchanged a span since cutoff, oldest donations first, and returns their
// chunks (span by span, classes in size order, so the pass is deterministic)
// for the caller to free into the arenas, with the span count and bytes.
// The share rarely divides evenly; the remainder carries over in hundredths
// of a span (like the magazines' decayRem), so a one-span class at 50%
// drains over two epochs instead of instantly. Scavenging itself does not
// refresh lastUse: a class nobody exchanges with keeps decaying epoch after
// epoch until it is empty.
func (d *depot) scavenge(t *sim.Thread, cutoff sim.Time, decayPercent int) (victims []tcEntry, spans int, bytes uint64) {
	for _, k := range d.classes.keys() {
		dc, csz := d.classes.get(k), slotClass(k)
		if dc.lastUse >= cutoff || len(dc.spans) == 0 {
			continue
		}
		total := len(dc.spans)*decayPercent + dc.decayRem
		n := total / 100
		dc.decayRem = total % 100
		if n == 0 {
			continue
		}
		d.enter(t, dc)
		d.swing(t, dc) // detach the whole stack
		for _, span := range dc.spans[:n] {
			victims = append(victims, span...)
			dc.bytes -= int64(len(span)) * int64(csz)
			bytes += uint64(len(span)) * uint64(csz)
		}
		spans += n
		dc.spans = append(dc.spans[:0], dc.spans[n:]...)
		if len(dc.spans) > 0 {
			d.swing(t, dc) // re-attach the survivors
		}
		d.leave(t, dc)
	}
	return victims, spans, bytes
}

// chunkCount returns the number of chunks parked right now.
func (d *depot) chunkCount() int {
	n := 0
	for _, k := range d.classes.keys() {
		for _, span := range d.classes.get(k).spans {
			n += len(span)
		}
	}
	return n
}

// byteCount returns the number of bytes parked right now.
func (d *depot) byteCount() uint64 {
	n := int64(0)
	for _, k := range d.classes.keys() {
		n += d.classes.get(k).bytes
	}
	return uint64(n)
}

// addPointStats adds the class points' counters to s: lock acquisitions —
// the depot-tier contention currency experiment D5 expects to collapse to
// zero on the lock-free kinds — or CAS attempts, failures and retry cycles.
func (d *depot) addPointStats(s *Stats) {
	for _, k := range d.classes.keys() {
		if dc := d.classes.get(k); dc.lock != nil {
			s.DepotLockAcqs += dc.lock.Acquisitions
		} else {
			s.CASAttempts += dc.head.CASAttempts
			s.CASFails += dc.head.CASFails
			s.CASRetryCycles += uint64(dc.head.WaitCycles)
		}
	}
}

// check verifies the depot invariants against the caller's duplicate set:
// every parked chunk passes the ownership check and appears in at most one
// cache slot anywhere (magazines included), and each class's byte counter
// agrees with its span list.
func (d *depot) check(seen map[uint64]bool, owns func(tcEntry) error) error {
	for _, k := range d.classes.keys() {
		dc, csz := d.classes.get(k), slotClass(k)
		var listBytes int64
		for _, span := range dc.spans {
			listBytes += int64(len(span)) * int64(csz)
			for _, e := range span {
				if seen[e.mem] {
					return fmt.Errorf("malloc: chunk 0x%x cached twice (depot %s class %d)", e.mem, d.name, csz)
				}
				seen[e.mem] = true
				if err := owns(e); err != nil {
					return fmt.Errorf("malloc: depot %s class %d: %w", d.name, csz, err)
				}
			}
		}
		if listBytes != dc.bytes {
			return fmt.Errorf("malloc: depot %s class %d: byte counter %d, span list holds %d",
				d.name, csz, dc.bytes, listBytes)
		}
	}
	return nil
}
