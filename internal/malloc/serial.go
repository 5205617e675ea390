package malloc

import (
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// Serial is the single-lock allocator: one arena, one mutex around every
// operation. It models the Solaris 2.6 libc allocator the paper measures —
// excellent single-thread speed (no arena search, no TSD) and catastrophic
// SMP scaling, because the lock serializes every malloc and free and each
// ownership change drags the allocator's hot cache lines across CPUs.
type Serial struct {
	*base
}

// NewSerial creates a single-lock allocator on as.
func NewSerial(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*Serial, error) {
	b, err := newBase(t, "serial", as, params, costs)
	if err != nil {
		return nil, err
	}
	return &Serial{base: b}, nil
}

// Malloc allocates size bytes. The allocator's instruction work is charged
// inside the critical section: the whole path of a single-lock libc malloc
// runs under the lock, which is exactly why it convoys on SMP.
func (s *Serial) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	main := s.arenas[0]
	s.opCharge(t, 0, main)
	if p, err, done := s.mmapPath(t, size); done {
		if err == nil {
			s.telOp(t, telemetry.OpMalloc, s.params.Request2Size(size), telemetry.TierVM, start)
		}
		return p, err
	}
	s.noteQuant(size)
	t.Lock(main.Lock)
	t.Charge(sim.Time(s.costs.WorkMalloc))
	p, err := main.Malloc(t, size)
	t.Unlock(main.Lock)
	s.lastArena.set(t.ID(), main)
	if err == nil {
		s.telOp(t, telemetry.OpMalloc, s.params.Request2Size(size), telemetry.TierArena, start)
	}
	return p, err
}

// Free releases mem, also fully under the lock.
func (s *Serial) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	main := s.arenas[0]
	s.opCharge(t, 0, main)
	if done, err := s.freeIfMmapped(t, mem); done {
		if err == nil {
			s.telOp(t, telemetry.OpFree, 0, telemetry.TierVM, start)
		}
		return err
	}
	t.Lock(main.Lock)
	t.Charge(sim.Time(s.costs.WorkFree))
	err := main.Free(t, mem)
	t.Unlock(main.Lock)
	if err == nil {
		s.telOp(t, telemetry.OpFree, 0, telemetry.TierArena, start)
	}
	return err
}

// Stats returns aggregated statistics.
func (s *Serial) Stats() Stats { return s.sumStats() }

// Check verifies arena invariants.
func (s *Serial) Check() error { return s.checkAll() }

var _ Allocator = (*Serial)(nil)

// Realloc resizes mem with C semantics.
func (s *Serial) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	return reallocOn(s, s.base, t, mem, size)
}

// Calloc allocates zeroed memory.
func (s *Serial) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	return callocOn(s, s.base, t, size)
}
