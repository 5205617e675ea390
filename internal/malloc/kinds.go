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
	// per-node service threads (service.go).
	KindThreadCacheSvc Kind = "threadcache-svc"
	KindLockFreeSvc    Kind = "lockfree-svc"
)

// Kinds lists every kind New builds: the five designs, then the two
// offloaded kinds. Experiments that sweep a subset name theirs.
func Kinds() []Kind {
	return []Kind{KindSerial, KindPTMalloc, KindPerThread, KindThreadCache, KindLockFree,
		KindThreadCacheSvc, KindLockFreeSvc}
}

// ParseKind returns the kind named s, or an error that lists the valid
// kinds. Command-line tools check their -allocator with it before they
// build a world.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", unknownKind(Kind(s))
}

func unknownKind(kind Kind) error {
	return fmt.Errorf("malloc: unknown allocator kind %q (valid: %v)", kind, Kinds())
}

// New constructs an allocator of the given kind on as. The design itself is
// returned — the op frame it runs (malloc.go) already includes the
// memory-pressure cascade (pressure.go), which stays idle unless an
// allocation actually fails.
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
		return nil, unknownKind(kind)
	}
	if err != nil {
		return nil, err
	}
	return al, nil
}
