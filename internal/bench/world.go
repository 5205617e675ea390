package bench

import (
	"fmt"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Instance is one "process": an address space plus the allocator living in
// it. The paper's thread mode runs all workers in one instance; its process
// mode gives each worker an instance of its own, which is what removes the
// shared-library coherence and lock traffic.
type Instance struct {
	AS    *vm.AddressSpace
	Alloc malloc.Allocator
}

// World wires a machine, a cache model and one or more instances together
// for a benchmark run.
type World struct {
	Profile Profile
	M       *sim.Machine
	Cache   *cache.Model

	Instances []*Instance

	// threadInst maps thread IDs to their instance so the spawn hook can
	// charge stack faults to the right address space.
	threadInst map[int]*Instance

	// sharedKernel, when set, makes every instance contend on one kernel
	// lock for VM syscalls (the pre-2.3.x kernel the authors patched).
	sharedKernel *sim.Mutex
}

// WorldOption adjusts world construction.
type WorldOption func(*World)

// WithAllocator overrides the profile's allocator kind.
func WithAllocator(kind malloc.Kind) WorldOption {
	return func(w *World) { w.Profile.Allocator = kind }
}

// WithAllocCosts overrides the profile's allocator cost parameters, so a
// caller that builds its own world (heapcheck, perfbench) can turn on a
// tier such as the scavenger without defining a whole new profile. The
// harnesses take theirs from their config's Profile.
func WithAllocCosts(costs malloc.CostParams) WorldOption {
	return func(w *World) { w.Profile.AllocCosts = costs }
}

// WithGlobalKernelLock serializes all instances' VM syscalls on one kernel
// lock (ablation A6: the global-kernel-lock sbrk path the authors patched
// out of Linux 2.3.x).
func WithGlobalKernelLock() WorldOption {
	return func(w *World) { w.sharedKernel = w.M.NewMutex("kernel.global") }
}

// NewWorld builds the machine and cache model for a profile. Instances are
// created by Run's main thread (allocator setup costs simulated time, like
// C library initialization does).
func NewWorld(p Profile, seed uint64, opts ...WorldOption) *World {
	m := sim.NewMachine(sim.Config{
		CPUs:     p.CPUs,
		ClockMHz: p.ClockMHz,
		Costs:    p.SimCosts,
		Seed:     seed,
		Nodes:    p.Nodes,
	})
	w := &World{
		Profile:    p,
		M:          m,
		Cache:      cache.NewModel(p.CPUs, p.CacheCosts),
		threadInst: make(map[int]*Instance),
	}
	for _, o := range opts {
		o(w)
	}
	m.OnSpawn = func(parent, child *sim.Thread) {
		inst := w.threadInst[parent.ID()]
		if inst == nil && len(w.Instances) > 0 {
			inst = w.Instances[0]
		}
		if inst != nil {
			w.threadInst[child.ID()] = inst
			// Each pthread_create reserves and touches a stack page: the
			// +1.1 faults/round term of benchmark 2's predictor.
			if _, err := inst.AS.AllocStack(parent, child.Name); err != nil {
				panic(fmt.Sprintf("bench: stack allocation failed: %v", err))
			}
		}
	}
	return w
}

// Run executes body as the machine's main thread. Use AddInstance from
// inside the body to create processes before spawning workers.
func (w *World) Run(body func(main *sim.Thread)) error {
	return w.M.Run(body)
}

// bootstrapPages is how many text pages program and C library startup touch
// in each instance: the constant term of benchmark 2's fault predictor.
const bootstrapPages = 10

// AddInstance creates one process image: address space, startup page
// faults, allocator. Must be called from a simulated thread (normally
// main). The creating thread is bound to the new instance.
func (w *World) AddInstance(t *sim.Thread) (*Instance, error) {
	id := uint32(len(w.Instances) + 1)
	vmOpts := []vm.Option{vm.WithCosts(w.Profile.VMCosts)}
	if w.sharedKernel != nil {
		vmOpts = append(vmOpts, vm.WithKernelLock(w.sharedKernel))
	}
	as := vm.New(id, w.M, w.Cache, vmOpts...)
	// Program + C library startup: touch the text image.
	for i := 0; i < bootstrapPages; i++ {
		as.Touch(t, vm.TextBase+uint64(i)*vm.PageSize)
	}
	al, err := malloc.New(t, w.Profile.Allocator, as, w.Profile.HeapParams, w.Profile.AllocCosts)
	if err != nil {
		return nil, fmt.Errorf("bench: creating allocator: %w", err)
	}
	inst := &Instance{AS: as, Alloc: al}
	w.Instances = append(w.Instances, inst)
	w.threadInst[t.ID()] = inst
	return inst, nil
}

// BindThread associates a thread with an instance explicitly (used when a
// coordinator thread spawns workers for several instances).
func (w *World) BindThread(t *sim.Thread, inst *Instance) {
	w.threadInst[t.ID()] = inst
}

// Seconds converts simulated cycles to seconds for this world's clock.
func (w *World) Seconds(c sim.Time) float64 { return w.M.Seconds(c) }
