package malloc

import (
	"fmt"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Kind names an allocator design.
type Kind string

// The allocator designs under study.
const (
	KindSerial      Kind = "serial"      // single lock (Solaris 2.6 libc model)
	KindPTMalloc    Kind = "ptmalloc"    // glibc 2.0/2.1 arena list
	KindPerThread   Kind = "perthread"   // one arena per thread
	KindThreadCache Kind = "threadcache" // per-thread magazine over a shared arena pool
	KindLockFree    Kind = "lockfree"    // thread cache with CAS depot + buddy page backend

	// Offloaded variants: the same machines with bookkeeping moved to
	// per-node service threads (service.go). Not listed by Kinds() —
	// experiments that sweep the five designs keep their original matrix;
	// D10 names these explicitly.
	KindThreadCacheSvc Kind = "threadcache-svc"
	KindLockFreeSvc    Kind = "lockfree-svc"
)

// Kinds lists every allocator kind.
func Kinds() []Kind {
	return []Kind{KindSerial, KindPTMalloc, KindPerThread, KindThreadCache, KindLockFree}
}

// New constructs an allocator of the given kind on as, wrapped in the
// memory-pressure shell (pressure.go): out-of-memory failures trigger an
// emergency reclamation cascade and bounded retries before propagating.
// The shell is a pure pass-through unless an allocation actually fails, so
// every unlimited run's numbers are those of the bare design.
func New(t *sim.Thread, kind Kind, as *vm.AddressSpace, params heap.Params, costs CostParams) (Allocator, error) {
	var al Allocator
	var err error
	switch kind {
	case KindSerial:
		al, err = NewSerial(t, as, params, costs)
	case KindPTMalloc:
		al, err = NewPTMalloc(t, as, params, costs)
	case KindPerThread:
		al, err = NewPerThread(t, as, params, costs)
	case KindThreadCache, KindLockFree, KindThreadCacheSvc, KindLockFreeSvc:
		al, err = newThreadCache(t, kind, as, params, costs)
	default:
		return nil, fmt.Errorf("malloc: unknown allocator kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return newResilient(al), nil
}

// Aligned returns params adjusted so every returned pointer sits on its own
// cache-line boundary: the benchmark 3 "cache-aligned" variant.
func Aligned(params heap.Params, lineSize uint32) heap.Params {
	params.Align = lineSize
	return params
}
