package malloc

import (
	"errors"
	"fmt"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// PTMalloc is the glibc 2.0/2.1 allocator design (Gloger's ptmalloc):
//
//   - a linked list of arenas, each with its own lock;
//   - malloc first trylocks the caller's last-used arena (thread-specific
//     data), then sweeps the list trylocking each arena, and only when all
//     are busy creates a new arena under the list lock — after one more
//     sweep, which is the window through which two threads can end up
//     sharing an arena;
//   - free locks whichever arena owns the chunk, wherever the caller runs —
//     so producer/consumer workloads scatter free chunks across arenas,
//     benchmark 2's leak mechanism;
//   - the arena list never shrinks ("nothing stops the heap list from
//     growing without bound", §3).
type PTMalloc struct {
	*base
}

// NewPTMalloc creates the glibc-style allocator on as.
func NewPTMalloc(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*PTMalloc, error) {
	b, err := newBase(t, "ptmalloc", as, params, costs)
	if err != nil {
		return nil, err
	}
	return &PTMalloc{base: b}, nil
}

// arenaGet implements ptmalloc's arena_get: returns a locked arena.
func (p *PTMalloc) arenaGet(t *sim.Thread) (*heap.Arena, error) {
	// Fast path: last arena from thread-specific data.
	if last := p.lastArena.get(t.ID()); last != nil {
		t.Charge(sim.Time(p.costs.TSDRead))
		if t.TryLock(last.Lock) {
			return last, nil
		}
		p.stats.TrylockFailures++
	}
	// Sweep the list for any unlocked arena.
	for _, a := range p.arenas {
		if t.TryLock(a.Lock) {
			p.lastArena.set(t.ID(), a)
			return a, nil
		}
		p.stats.TrylockFailures++
	}
	// All busy: create a new arena, retrying the sweep once under the list
	// lock (the real code does; it is how two racing threads can end up on
	// one arena instead of creating two).
	t.Lock(p.listLock)
	for _, a := range p.arenas {
		if t.TryLock(a.Lock) {
			t.Unlock(p.listLock)
			p.lastArena.set(t.ID(), a)
			return a, nil
		}
		p.stats.TrylockFailures++
	}
	a, err := heap.NewSub(t, p.as, &p.params, len(p.arenas))
	if err != nil {
		t.Unlock(p.listLock)
		return nil, err
	}
	p.arenas = append(p.arenas, a)
	p.stats.ArenaCreations++
	t.Unlock(p.listLock)
	t.Lock(a.Lock)
	p.lastArena.set(t.ID(), a)
	return a, nil
}

// Malloc allocates size bytes. Like glibc, the allocation path runs under
// the chosen arena's lock, so the instruction work is charged inside the
// critical section.
func (p *PTMalloc) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	p.opCharge(t, 0, p.lastArena.get(t.ID()))
	if mem, err, done := p.mmapPath(t, size); done {
		if err == nil {
			p.telOp(t, telemetry.OpMalloc, p.params.Request2Size(size), telemetry.TierVM, start)
		}
		return mem, err
	}
	p.noteQuant(size)
	mem, err := p.mallocArena(t, size)
	if err == nil {
		p.telOp(t, telemetry.OpMalloc, p.params.Request2Size(size), telemetry.TierArena, start)
	}
	return mem, err
}

// mallocArena is the arena half of Malloc: trylock search, blocking
// fall-over, fresh-arena growth.
func (p *PTMalloc) mallocArena(t *sim.Thread, size uint32) (uint64, error) {
	a, err := p.arenaGet(t)
	if err != nil {
		return 0, err
	}
	t.Charge(sim.Time(p.costs.WorkMalloc))
	mem, err := a.Malloc(t, size)
	t.Unlock(a.Lock)
	if err == nil {
		return mem, nil
	}
	if !errors.Is(err, heap.ErrArenaFull) {
		return 0, err
	}
	// The sub-arena hit its size cap: fall over to any arena that can
	// serve, blocking on locks this time, then to a fresh arena.
	for _, b := range p.arenas {
		if b == a {
			continue
		}
		t.Lock(b.Lock)
		mem, err = b.Malloc(t, size)
		t.Unlock(b.Lock)
		if err == nil {
			p.lastArena.set(t.ID(), b)
			return mem, nil
		}
	}
	t.Lock(p.listLock)
	nb, cerr := heap.NewSub(t, p.as, &p.params, len(p.arenas))
	if cerr != nil {
		t.Unlock(p.listLock)
		return 0, fmt.Errorf("malloc: no arena can satisfy %d bytes: %w", size, cerr)
	}
	p.arenas = append(p.arenas, nb)
	p.stats.ArenaCreations++
	t.Unlock(p.listLock)
	t.Lock(nb.Lock)
	mem, err = nb.Malloc(t, size)
	t.Unlock(nb.Lock)
	if err == nil {
		p.lastArena.set(t.ID(), nb)
	}
	return mem, err
}

// Free releases mem, locking the owning arena (not necessarily the
// caller's).
func (p *PTMalloc) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	p.opCharge(t, 0, p.lastArena.get(t.ID()))
	if done, err := p.freeIfMmapped(t, mem); done {
		if err == nil {
			p.telOp(t, telemetry.OpFree, 0, telemetry.TierVM, start)
		}
		return err
	}
	a, err := p.routeFree(t, mem)
	if err != nil {
		return err
	}
	if cur := p.lastArena.get(t.ID()); cur != nil && cur != a {
		p.stats.CrossArenaFrees++
	}
	t.Lock(a.Lock)
	t.Charge(sim.Time(p.costs.WorkFree))
	ferr := a.Free(t, mem)
	t.Unlock(a.Lock)
	if ferr == nil {
		p.telOp(t, telemetry.OpFree, 0, telemetry.TierArena, start)
	}
	return ferr
}

// Stats returns aggregated statistics.
func (p *PTMalloc) Stats() Stats { return p.sumStats() }

// Check verifies every arena.
func (p *PTMalloc) Check() error { return p.checkAll() }

var _ Allocator = (*PTMalloc)(nil)

// Realloc resizes mem with C semantics, growing in place inside the owning
// arena when a neighbour can be absorbed.
func (p *PTMalloc) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	return reallocOn(p, p.base, t, mem, size)
}

// Calloc allocates zeroed memory.
func (p *PTMalloc) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	return callocOn(p, p.base, t, size)
}
