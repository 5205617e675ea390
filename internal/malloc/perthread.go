package malloc

import (
	"errors"
	"fmt"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// PerThread gives every thread its own arena, created on first allocation —
// the "per-thread storage" design the paper's §2 describes as option 2 (and
// the direction Hoard/tcmalloc later took). Allocation never contends;
// cross-thread frees lock the owning thread's arena. The trade-off is
// worst-case memory: T threads hold T arenas regardless of load balance.
type PerThread struct {
	*base
	owner denseTable[*heap.Arena] // thread ID -> arena
}

// NewPerThread creates the per-thread-arena allocator on as. The main arena
// is used by the creating thread and by threads that never allocate.
func NewPerThread(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*PerThread, error) {
	b, err := newBase(t, "perthread", as, params, costs)
	if err != nil {
		return nil, err
	}
	p := &PerThread{base: b}
	p.owner.set(t.ID(), b.arenas[0])
	return p, nil
}

// arenaOf returns (creating if needed) the calling thread's private arena.
func (p *PerThread) arenaOf(t *sim.Thread) (*heap.Arena, error) {
	t.Charge(sim.Time(p.costs.TSDRead))
	if a := p.owner.get(t.ID()); a != nil {
		return a, nil
	}
	t.Lock(p.listLock)
	a, err := heap.NewSub(t, p.as, &p.params, len(p.arenas))
	if err != nil {
		t.Unlock(p.listLock)
		return nil, fmt.Errorf("malloc: creating per-thread arena: %w", err)
	}
	p.arenas = append(p.arenas, a)
	p.stats.ArenaCreations++
	t.Unlock(p.listLock)
	p.owner.set(t.ID(), a)
	return a, nil
}

// Malloc allocates size bytes from the caller's arena. The mmap path is
// checked first (matching PTMalloc.Malloc), so a thread that only ever does
// above-threshold allocations never pays for a private arena it cannot use.
func (p *PerThread) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	t.MaybeYield()
	start := t.Now()
	p.opCharge(t, 0, p.owner.get(t.ID()))
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

// mallocArena is the arena half of Malloc: the private arena with main as
// the overflow.
func (p *PerThread) mallocArena(t *sim.Thread, size uint32) (uint64, error) {
	a, err := p.arenaOf(t)
	if err != nil {
		return 0, err
	}
	t.Lock(a.Lock)
	t.Charge(sim.Time(p.costs.WorkMalloc))
	mem, merr := a.Malloc(t, size)
	t.Unlock(a.Lock)
	p.lastArena.set(t.ID(), a)
	if merr == nil || !(errors.Is(merr, heap.ErrArenaFull) || errors.Is(merr, heap.ErrNoMemory)) {
		return mem, merr
	}
	// Private arena at its size cap — or unable to grow at all under a
	// commit limit: overflow to the main arena, which may still have free
	// chunks (and grows with sbrk, uncapped). The chunk will come back as a
	// cross-arena free, the design's documented trade-off.
	main := p.arenas[0]
	t.Lock(main.Lock)
	t.Charge(sim.Time(p.costs.WorkMalloc))
	mem, merr = main.Malloc(t, size)
	t.Unlock(main.Lock)
	if merr == nil {
		p.lastArena.set(t.ID(), main)
	}
	return mem, merr
}

// Free releases mem into its owning arena.
func (p *PerThread) Free(t *sim.Thread, mem uint64) error {
	t.MaybeYield()
	start := t.Now()
	p.opCharge(t, 0, p.owner.get(t.ID()))
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
	if own := p.owner.get(t.ID()); own != nil && own != a {
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
func (p *PerThread) Stats() Stats { return p.sumStats() }

// Check verifies every arena.
func (p *PerThread) Check() error { return p.checkAll() }

var _ Allocator = (*PerThread)(nil)

// Realloc resizes mem with C semantics.
func (p *PerThread) Realloc(t *sim.Thread, mem uint64, size uint32) (uint64, error) {
	return reallocOn(p, p.base, t, mem, size)
}

// Calloc allocates zeroed memory.
func (p *PerThread) Calloc(t *sim.Thread, size uint32) (uint64, error) {
	return callocOn(p, p.base, t, size)
}
