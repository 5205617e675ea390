package malloc

import (
	"errors"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// The paper's three designs differ in one decision — which arena a malloc
// locks — so each is an arena policy over the op frame on base (malloc.go):
// which arena is a thread's own (base.own, the arena the per-op tax bills),
// how a malloc gets a locked arena, what a full arena falls over to, and how
// a free finds its arena.

// Serial is the single-lock allocator: one arena, one mutex around every
// operation. It models the Solaris 2.6 libc allocator the paper measures —
// excellent single-thread speed (no arena search, no TSD) and catastrophic
// SMP scaling, because the lock serializes every malloc and free and each
// ownership change drags the allocator's hot cache lines across CPUs. It is
// base's own policy — the main arena is every thread's own (base.own stays
// nil) — except that a free goes straight to the main arena, with no
// routing.
type Serial struct{ base }

// NewSerial creates a single-lock allocator on as.
func NewSerial(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*Serial, error) {
	s := &Serial{}
	if err := s.init(t, s, string(KindSerial), as, params, costs); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Serial) freeArena(*sim.Thread, uint64) (*heap.Arena, error) {
	return s.arenas[0], nil
}

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
type PTMalloc struct{ base }

// NewPTMalloc creates the glibc-style allocator on as.
func NewPTMalloc(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*PTMalloc, error) {
	p := &PTMalloc{}
	if err := p.init(t, p, string(KindPTMalloc), as, params, costs); err != nil {
		return nil, err
	}
	p.own = &p.lastArena
	return p, nil
}

// lockArena implements ptmalloc's arena_get: returns a locked arena.
func (p *PTMalloc) lockArena(t *sim.Thread) (*heap.Arena, error) {
	// Fast path: last arena from thread-specific data.
	if last := p.lastArena.get(t.ID()); last != nil {
		t.Charge(sim.Time(p.costs.TSDRead))
		if t.TryLock(last.Lock) {
			return last, nil
		}
		p.stats.TrylockFailures++
	}
	// Sweep the list for any unlocked arena.
	if a := p.sweep(t); a != nil {
		return a, nil
	}
	// All busy: create a new arena, retrying the sweep once under the list
	// lock (the real code does; it is how two racing threads can end up on
	// one arena instead of creating two).
	t.Lock(p.listLock)
	if a := p.sweep(t); a != nil {
		t.Unlock(p.listLock)
		return a, nil
	}
	a, err := p.grow(t, -1)
	t.Unlock(p.listLock)
	if err != nil {
		return nil, err
	}
	t.Lock(a.Lock)
	p.lastArena.set(t.ID(), a)
	return a, nil
}

// sweep trylocks every arena in list order and returns the first it locks,
// made the caller's last arena; nil when all are busy.
func (p *PTMalloc) sweep(t *sim.Thread) *heap.Arena {
	for _, a := range p.arenas {
		if t.TryLock(a.Lock) {
			p.lastArena.set(t.ID(), a)
			return a
		}
		p.stats.TrylockFailures++
	}
	return nil
}

// fallover handles a sub-arena at its size cap: any other arena that can
// serve, blocking on locks this time, then a fresh arena.
func (p *PTMalloc) fallover(t *sim.Thread, full *heap.Arena, size uint32, err error) (uint64, error) {
	if !errors.Is(err, heap.ErrArenaFull) {
		return 0, err
	}
	for _, a := range p.arenas {
		if a == full {
			continue
		}
		if mem, err := p.mallocOn(t, a, size); err == nil {
			return mem, nil
		}
	}
	t.Lock(p.listLock)
	a, err := p.grow(t, -1)
	t.Unlock(p.listLock)
	if err != nil {
		return 0, err
	}
	return p.mallocOn(t, a, size)
}

// PerThread gives every thread its own arena, created on first allocation —
// the "per-thread storage" design the paper's §2 describes as option 2 (and
// the direction Hoard/tcmalloc later took). Allocation never contends;
// cross-thread frees lock the owning thread's arena. The trade-off is
// worst-case memory: T threads hold T arenas regardless of load balance.
type PerThread struct {
	base
	owner denseTable[*heap.Arena] // thread ID -> arena
}

// NewPerThread creates the per-thread-arena allocator on as. The main arena
// is used by the creating thread and by threads that never allocate.
func NewPerThread(t *sim.Thread, as *vm.AddressSpace, params heap.Params, costs CostParams) (*PerThread, error) {
	p := &PerThread{}
	if err := p.init(t, p, string(KindPerThread), as, params, costs); err != nil {
		return nil, err
	}
	p.owner.set(t.ID(), p.arenas[0])
	// A thread's own arena is its private one, wherever its last malloc
	// landed.
	p.own = &p.owner
	return p, nil
}

// lockArena locks (creating if needed) the calling thread's private arena.
// The mmap path runs first, so a thread that only ever does
// above-threshold allocations never pays for an arena it cannot use.
func (p *PerThread) lockArena(t *sim.Thread) (*heap.Arena, error) {
	t.Charge(sim.Time(p.costs.TSDRead))
	a := p.owner.get(t.ID())
	if a == nil {
		t.Lock(p.listLock)
		var err error
		a, err = p.grow(t, -1)
		t.Unlock(p.listLock)
		if err != nil {
			return nil, err
		}
		p.owner.set(t.ID(), a)
	}
	t.Lock(a.Lock)
	return a, nil
}

// fallover handles a private arena at its size cap — or unable to grow at
// all under a commit limit: the request overflows to the main arena, which
// may still have free chunks (and grows with sbrk, uncapped). The chunk
// will come back as a cross-arena free, the design's documented trade-off.
func (p *PerThread) fallover(t *sim.Thread, _ *heap.Arena, size uint32, err error) (uint64, error) {
	if !errors.Is(err, heap.ErrArenaFull) && !errors.Is(err, heap.ErrNoMemory) {
		return 0, err
	}
	main := p.arenas[0]
	t.Lock(main.Lock)
	t.Charge(sim.Time(p.costs.WorkMalloc))
	mem, err := main.Malloc(t, size)
	t.Unlock(main.Lock)
	if err == nil {
		p.lastArena.set(t.ID(), main)
	}
	return mem, err
}

var _ = []Allocator{(*Serial)(nil), (*PTMalloc)(nil), (*PerThread)(nil), (*ThreadCache)(nil)}
