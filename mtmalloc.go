// Package mtmalloc is a full reproduction of Lever & Boreham, "malloc()
// Performance in a Multithreaded Linux Environment" (USENIX 2000, FREENIX
// track; CITI TR 00-5), as a library.
//
// Because a Go process cannot observe OS heap behaviour (the runtime owns
// allocation), the reproduction is built on a deterministic discrete-event
// simulation of the paper's SMP hosts: simulated threads, CPUs, mutexes
// with analytic contention, a MESI-style cache directory, and a virtual
// memory subsystem with sbrk/mmap and first-touch minor-fault accounting.
// On top of that substrate live faithful reimplementations of the
// allocators the paper compares: glibc 2.0/2.1's ptmalloc (arena list with
// trylock sweep), a Solaris-style single-lock allocator, and a per-thread
// arena design — plus a fourth design from the paper's future: a
// tcmalloc/Hoard-style thread cache (ThreadCache), where each thread keeps a
// size-classed magazine in front of a CPU-count-bounded arena pool. Mallocs
// pop from the magazine with zero locking, misses refill a batch of 16
// chunks under one lock acquisition, and frees park locally until a class
// crosses its adaptive high-water mark (at most 64 chunks; chunks above
// 32 KB are never cached). All designs run one op frame and differ only in
// the policy it asks them for. Experiment D1 compares all four designs
// head-to-head.
//
// The package surface re-exports the pieces a user needs to run the
// paper's experiments or build new workloads:
//
//	prof := mtmalloc.QuadXeon500()
//	res, err := mtmalloc.RunBench1(mtmalloc.B1Config{
//	    Profile: prof, Threads: 4, Size: 8192, Pairs: 1_000_000, Runs: 3, Seed: 1,
//	})
//
// Custom workloads use a World directly:
//
//	w := mtmalloc.NewWorld(prof, seed)
//	err := w.Run(func(main *mtmalloc.Thread) {
//	    inst, _ := w.AddInstance(main)
//	    p, _ := inst.Alloc.Malloc(main, 512)
//	    _ = inst.Alloc.Free(main, p)
//	})
//
// See ARCHITECTURE.md for the layers and allocator designs; cmd/repro runs
// the registry, regenerating the measured reproduction of every table and
// figure, and writes the checked-in ledger records (-json).
package mtmalloc

import (
	"mtmalloc/internal/bench"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Core simulation types.
type (
	// Machine is the discrete-event SMP simulator.
	Machine = sim.Machine
	// Thread is a simulated thread handle, passed through every
	// allocator call the way a real thread's identity is implicit.
	Thread = sim.Thread
	// Mutex is a simulated lock with analytic contention.
	Mutex = sim.Mutex
	// Time is simulated time in CPU cycles.
	Time = sim.Time
	// AddressSpace is a simulated process image.
	AddressSpace = vm.AddressSpace
)

// Allocator types.
type (
	// Allocator is the malloc/free interface all designs implement.
	Allocator = malloc.Allocator
	// AllocatorKind names an allocator design.
	AllocatorKind = malloc.Kind
	// HeapParams are the mallopt-style tunables.
	HeapParams = heap.Params
	// Arena is one heap (bins + segments behind one lock).
	Arena = heap.Arena
)

// Allocator kinds.
const (
	Serial      = malloc.KindSerial
	PTMalloc    = malloc.KindPTMalloc
	PerThread   = malloc.KindPerThread
	ThreadCache = malloc.KindThreadCache
	LockFree    = malloc.KindLockFree
)

// Benchmark harness types.
type (
	Profile  = bench.Profile
	World    = bench.World
	Instance = bench.Instance

	B1Config = bench.B1Config
	B1Result = bench.B1Result
	B2Config = bench.B2Config
	B2Result = bench.B2Result
	B3Config = bench.B3Config
	B3Result = bench.B3Result

	Experiment = bench.Experiment
	Options    = bench.Options
	Table      = bench.Table
)

// Machine profiles of the paper's four hosts; Profiles lists every
// profile by name, the multi-node NUMA family included.
func DualPPro200() Profile         { return bench.DualPPro200() }
func QuadXeon500() Profile         { return bench.QuadXeon500() }
func SunUltra2x400() Profile       { return bench.SunUltra2x400() }
func K6_400() Profile              { return bench.K6_400() }
func Profiles() map[string]Profile { return bench.Profiles() }

// NewWorld builds a machine + cache model for a profile; add instances and
// spawn workers from inside Run.
func NewWorld(p Profile, seed uint64, opts ...bench.WorldOption) *World {
	return bench.NewWorld(p, seed, opts...)
}

// WithAllocator overrides a world's allocator design.
func WithAllocator(kind AllocatorKind) bench.WorldOption { return bench.WithAllocator(kind) }

// The paper's three microbenchmarks.
func RunBench1(cfg B1Config) (B1Result, error) { return bench.RunBench1(cfg) }
func RunBench2(cfg B2Config) (B2Result, error) { return bench.RunBench2(cfg) }
func RunBench3(cfg B3Config) (B3Result, error) { return bench.RunBench3(cfg) }

// Experiments returns the registry: every table and figure of the paper,
// the ablations of its §3 claims (A4–A6) and the extensions (D1+).
func Experiments() []Experiment { return bench.All() }

// PredictMinorFaults is benchmark 2's lower-bound fault predictor
// mpf = 14 + 1.1*t*r + 127.6*t.
func PredictMinorFaults(threads, rounds int) float64 {
	return bench.PredictMinorFaults(threads, rounds)
}
