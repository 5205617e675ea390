package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/scavenge"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

// designs is the matrix every workload runs, in order.
var designs = []malloc.Kind{
	malloc.KindSerial, malloc.KindPTMalloc, malloc.KindPerThread,
	malloc.KindThreadCache, malloc.KindLockFree, malloc.KindThreadCacheSvc,
}

// workload is one input family. The load is closed-loop: each simulated
// thread issues its next call only when the previous one returned.
type workload struct {
	name string
	why  string
	// stream separates this workload's input streams from every other's.
	stream  uint64
	profile func() bench.Profile
	// scavenge switches the reclamation subsystem on at the profile's own
	// tuning (Profile.ScavengeCosts).
	scavenge bool
	// touch makes every object carry a stamp byte on each of its pages,
	// written after malloc and checked before free.
	touch bool
	body  func(e *env)
}

var workloads = []*workload{
	{
		name: "larson-4t",
		why: "Server churn on private slots: frees return to the allocating thread, so cost sits in " +
			"magazine and arena fast paths and in lock contention. Control for rotate-16t.",
		stream: 1 << 40, profile: bench.QuadXeon500, body: larson,
	},
	{
		name: "rotate-16t",
		why: "Rotating Larson on 2 NUMA nodes: every free is cross-thread, about half cross-node, " +
			"exercising depots, CAS retry, remote-free routing, service mailboxes and C2C transfers.",
		stream: 2 << 40, profile: func() bench.Profile { return bench.NUMAServerScale(2, 16) },
		touch: true, body: rotate,
	},
	{
		name: "phased-respawn",
		why: "Three generations of threads separated by idle gaps with a 512 B + 160 KB mix: thread " +
			"re-creation, heap growth, scavenging, refaults and mmap reuse do real work.",
		stream: 3 << 40, profile: bench.QuadXeon500, scavenge: true, touch: true, body: phased,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Workload sizes. Each design's timed phase runs a fixed amount of
// simulated work; the benchmark repeats whole rounds to fill its time budget.
const (
	larsonThreads = 4
	larsonSlots   = 1000
	larsonOps     = 60000 // replaces per thread
	larsonMin     = 10
	larsonMax     = 100

	rotateThreads = 16
	rotateSlots   = 400
	rotateOps     = 3000 // replaces per thread, split over the rounds
	rotateRounds  = 16

	phasedThreads = 4
	phasedGens    = 3
	phasedSmall   = 1500 // 512 B slots per thread
	phasedLarge   = 4    // 160 KB slots per thread, above the mmap threshold
	phasedOps     = 2500 // replaces per thread per generation
	phasedIdle    = 0.01 // seconds of simulated idle between generations

	// pollCycles is how long a thread waiting at a barrier sleeps between
	// checks.
	pollCycles = 10000
	// samplePeriod is the simulated-time period of the resident-memory
	// sampler.
	samplePeriod = 0.001
)

// input is one simulated thread's generated request stream: slot indices,
// sizes and stamps, a pure function of the seed.
type input struct{ rng *xrand.RNG }

func (in input) slot(n int) int { return in.rng.Intn(n) }

func (in input) larsonSize() uint32 {
	return larsonMin + uint32(in.rng.Intn(larsonMax-larsonMin+1))
}

func (in input) stamp() byte { return byte(in.rng.Uint32()) }

// slot is one live object the benchmark holds: the program's output, kept so
// the gate can check it.
type slot struct {
	p     uint64
	size  uint32
	stamp byte
}

// designResult is what one design's run yields.
type designResult struct {
	kind     malloc.Kind
	clockMHz float64

	setupHost, timedHost time.Duration
	probe                time.Duration // the speed probe timed right after the run
	liveMB               float64

	attempted, failed uint64
	calls             uint64   // malloc+free calls in the timed phase
	busy              sim.Time // timed-phase cycles, idle gaps excluded

	lat             latDist // empty when the run had no timing decorator
	rssKB, parkedKB float64 // means over the timed phase
	arenas          int
	layer           counts // timed-phase counter deltas

	// tiers splits the timed malloc+free cycles by serving tier; set only
	// when a telemetry recorder was attached.
	tiers     map[string]uint64
	tierTotal uint64
}

// runOpts selects the instrumentation of one design run.
type runOpts struct {
	trace     *tracer // host spans; nil when untraced
	telemetry bool    // attach a telemetry recorder for the timed phase
	bare      bool    // no timing decorator (the decorator-invariance test)
}

// env is the state a workload body works with.
type env struct {
	wl   *workload
	w    *bench.World
	main *sim.Thread
	seed uint64
	tr   *tracer
	res  *designResult

	// al is the unwrapped allocator: ServiceOf, AttachTelemetry, Check and
	// the optional-interface lookups need it. call is what workload calls go
	// through — the timing decorator, or al itself for a bare run.
	al    malloc.Allocator
	call  malloc.Allocator
	timed *timedAlloc
	as    *vm.AddressSpace
	rec   *telemetry.Recorder

	hostStart, hostTimed time.Time
	timingSpan           int
	busyFrom             sim.Time
	begin                counts
	timing, stop         bool
	arrived              int
	helpers              []*sim.Thread

	rssSum, parkedSum float64
	samples           int

	slots [][]slot
	err   error
}

// runDesign builds a fresh world for one design and runs the workload on it:
// set-up (construction, service threads, prefill), the timed phase, then the
// correctness gate.
func runDesign(wl *workload, kind malloc.Kind, seed uint64, o runOpts) (*designResult, error) {
	runtime.GC()
	prof := wl.profile()
	res := &designResult{kind: kind, clockMHz: prof.ClockMHz}
	e := &env{wl: wl, seed: seed, tr: o.trace, res: res, hostStart: time.Now()}
	opts := []bench.WorldOption{bench.WithAllocator(kind)}
	if wl.scavenge {
		opts = append(opts, bench.WithAllocCosts(prof.ScavengeCosts()))
	}
	e.w = bench.NewWorld(prof, seed, opts...)
	if o.telemetry {
		e.rec = telemetry.NewRecorder(telemetry.Config{ClockMHz: prof.ClockMHz})
	}
	err := e.w.Run(func(main *sim.Thread) {
		e.main = main
		inst, err := e.w.AddInstance(main)
		if err != nil {
			panic(err)
		}
		e.al, e.as, e.call = inst.Alloc, inst.AS, inst.Alloc
		if !o.bare {
			e.timed = &timedAlloc{Allocator: inst.Alloc}
			e.call = e.timed
		}
		e.startHelpers()
		wl.body(e)
		e.gate()
	})
	if err == nil {
		err = e.err
	}
	if err == nil && e.rec != nil {
		res.tiers, res.tierTotal, err = tierCycles(e.rec, res.calls)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s/%s: %v", errIncorrect, wl.name, kind, err)
	}
	if e.timed != nil {
		res.lat = e.timed.lat.dist()
	}
	if e.samples > 0 {
		res.rssKB = e.rssSum / float64(e.samples) / 1024
		res.parkedKB = e.parkedSum / float64(e.samples) / 1024
	}
	return res, nil
}

// fail records the first correctness error; the run goes on so the gate
// still frees everything, and the error fails the benchmark afterwards.
func (e *env) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *env) input(i int) input {
	return input{xrand.New(e.seed, e.wl.stream+uint64(i))}
}

// startHelpers starts what runs beside the workers: the allocator's service
// threads or background scavenger, and the resident-memory sampler.
func (e *env) startHelpers() {
	if svc := malloc.ServiceOf(e.al); svc != nil {
		svc.Start(e.main)
	} else if sc, ok := e.al.(interface{ Scavenger() *scavenge.Scavenger }); ok && sc.Scavenger() != nil {
		e.helpers = append(e.helpers, e.spawn(e.main, "scavenger", func(t *sim.Thread) {
			sc.Scavenger().Background(t, func() bool { return e.stop })
		}))
	}
	e.helpers = append(e.helpers, e.spawn(e.main, "sampler", e.sample))
}

// sample reads resident and tier-parked bytes on a fixed simulated period
// while the timed phase runs. The reads are uncharged bookkeeping.
func (e *env) sample(t *sim.Thread) {
	parked := func() uint64 { return 0 }
	if p, ok := e.al.(interface{ ParkedBytes() uint64 }); ok {
		parked = p.ParkedBytes
	}
	period := e.w.M.Cycles(samplePeriod)
	for !e.stop {
		if e.timing {
			e.rssSum += float64(e.as.Stats().ResidentBytes)
			e.parkedSum += float64(parked())
			e.samples++
		}
		e.sleep(t, period)
	}
}

// beginTimed ends set-up and starts the timed phase. It runs on whichever
// simulated thread completes the prefill.
func (e *env) beginTimed(t *sim.Thread) {
	e.res.setupHost = time.Since(e.hostStart)
	e.tr.span("setup "+string(e.res.kind), "setup", 0, e.hostStart)
	e.begin = snapCounts(e)
	if e.rec != nil {
		malloc.AttachTelemetry(e.al, e.rec)
	}
	runtime.GC()
	e.timing = true
	if e.timed != nil {
		e.timed.on = true
	}
	e.busyFrom = t.Now()
	e.hostTimed = time.Now()
	e.timingSpan = e.tr.open()
}

// endTimed closes the timed phase and measures the host heap it left live.
func (e *env) endTimed() {
	e.res.timedHost = time.Since(e.hostTimed)
	e.tr.close(e.timingSpan, "timed "+string(e.res.kind), "timed", e.hostTimed)
	e.timing = false
	if e.timed != nil {
		e.timed.on = false
	}
	e.res.layer = snapCounts(e).minus(e.begin)
	e.res.arenas = len(e.al.Arenas())
	if e.rec != nil {
		malloc.AttachTelemetry(e.al, nil)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.res.liveMB = float64(ms.HeapAlloc) / (1 << 20)
}

// gate is the correctness check after the timed phase: stop the helpers,
// check that no two live objects overlap, free every live object (checking
// stamps), and run the allocator's structural Check.
func (e *env) gate() {
	e.stop = true
	for _, h := range e.helpers {
		e.join(e.main, h)
	}
	if svc := malloc.ServiceOf(e.al); svc != nil {
		svc.Stop(e.main)
	}
	if err := checkDisjoint(e.slots); err != nil {
		e.fail(err)
	}
	for _, tab := range e.slots {
		for i := range tab {
			e.drop(e.main, &tab[i])
		}
	}
	if err := e.al.Check(); err != nil {
		e.fail(fmt.Errorf("allocator check: %w", err))
	}
}

// checkDisjoint reports two live objects whose byte ranges overlap.
func checkDisjoint(tabs [][]slot) error {
	var live []slot
	for _, tab := range tabs {
		for _, s := range tab {
			if s.p != 0 {
				live = append(live, s)
			}
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].p < live[j].p })
	for i := 1; i < len(live); i++ {
		a, b := live[i-1], live[i]
		if a.p+uint64(a.size) > b.p {
			return fmt.Errorf("live objects overlap: 0x%x+%d and 0x%x", a.p, a.size, b.p)
		}
	}
	return nil
}

func (e *env) count(err error) {
	e.res.attempted++
	if e.timing {
		e.res.calls++
	}
	if err != nil {
		e.res.failed++
	}
}

// fill allocates size bytes into s and, for touching workloads, writes the
// stamp to every page of the object. A failed malloc leaves the slot empty.
func (e *env) fill(t *sim.Thread, s *slot, size uint32, stamp byte) {
	start := e.tr.begin()
	p, err := e.call.Malloc(t, size)
	e.tr.call(layerMalloc, start)
	e.count(err)
	if err != nil {
		*s = slot{}
		return
	}
	*s = slot{p: p, size: size, stamp: stamp}
	if e.wl.touch {
		start := e.tr.begin()
		for off := uint64(0); off < uint64(size); off += vm.PageSize {
			e.as.Write8(t, p+off, stamp)
		}
		e.tr.call(layerVM, start)
	}
}

// drop frees s's object, first checking its stamp for touching workloads.
func (e *env) drop(t *sim.Thread, s *slot) {
	if s.p == 0 {
		return
	}
	if e.wl.touch {
		start := e.tr.begin()
		got := e.as.Read8(t, s.p)
		e.tr.call(layerVM, start)
		if got != s.stamp {
			e.fail(fmt.Errorf("object 0x%x: stamp %#x, want %#x", s.p, got, s.stamp))
		}
	}
	start := e.tr.begin()
	err := e.call.Free(t, s.p)
	e.tr.call(layerMalloc, start)
	e.count(err)
	*s = slot{}
}

func (e *env) spawn(parent *sim.Thread, name string, body func(*sim.Thread)) *sim.Thread {
	start := e.tr.begin()
	th := parent.Spawn(name, body)
	e.tr.call(layerSim, start)
	return th
}

func (e *env) join(t, other *sim.Thread) {
	start := e.tr.begin()
	t.Join(other)
	e.tr.call(layerSim, start)
}

func (e *env) sleep(t *sim.Thread, d sim.Time) {
	start := e.tr.begin()
	t.Sleep(d)
	e.tr.call(layerSim, start)
}

// workers spawns n threads running body(t, i), each attached to the
// allocator for its lifetime, and waits for all of them.
func (e *env) workers(n int, name string, body func(t *sim.Thread, i int)) {
	ths := make([]*sim.Thread, n)
	for i := range ths {
		i := i
		ths[i] = e.spawn(e.main, fmt.Sprintf("%s-%d", name, i), func(t *sim.Thread) {
			e.call.AttachThread(t)
			defer e.call.DetachThread(t)
			body(t, i)
		})
	}
	for _, th := range ths {
		e.join(e.main, th)
	}
}

// await blocks t until arrivals reach n in total; the arrival that reaches
// it runs onLast first (nil for a plain barrier).
func (e *env) await(t *sim.Thread, n int, onLast func(*sim.Thread)) {
	e.arrived++
	if e.arrived == n && onLast != nil {
		onLast(t)
	}
	for e.arrived < n {
		e.sleep(t, pollCycles)
	}
}

// larson is flat Larson: each thread prefills its private slots, then
// replaces random slots with random 10-100 B objects. Objects are not
// touched.
func larson(e *env) {
	e.slots = make([][]slot, larsonThreads)
	e.workers(larsonThreads, "larson", func(t *sim.Thread, i int) {
		in := e.input(i)
		tab := make([]slot, larsonSlots)
		e.slots[i] = tab
		for s := range tab {
			e.fill(t, &tab[s], in.larsonSize(), 0)
		}
		e.await(t, larsonThreads, e.beginTimed)
		for op := 0; op < larsonOps; op++ {
			s := &tab[in.slot(larsonSlots)]
			e.drop(t, s)
			e.fill(t, s, in.larsonSize(), 0)
		}
	})
	e.res.busy += e.main.Now() - e.busyFrom
	e.endTimed()
}

// rotate is rotating ("bleeding") Larson: after the prefill, round r has
// thread i work the slot array r%15+1 hops ahead, never its own, so the
// objects it frees were allocated by other threads. A barrier separates
// rounds.
func rotate(e *env) {
	e.slots = make([][]slot, rotateThreads)
	for i := range e.slots {
		e.slots[i] = make([]slot, rotateSlots)
	}
	e.workers(rotateThreads, "rotate", func(t *sim.Thread, i int) {
		in := e.input(i)
		tab := e.slots[i]
		for s := range tab {
			e.fill(t, &tab[s], in.larsonSize(), in.stamp())
		}
		e.await(t, rotateThreads, e.beginTimed)
		for r := 0; r < rotateRounds; r++ {
			cur := e.slots[(i+r%(rotateThreads-1)+1)%rotateThreads]
			for op := 0; op < rotateOps/rotateRounds; op++ {
				s := &cur[in.slot(rotateSlots)]
				e.drop(t, s)
				e.fill(t, s, in.larsonSize(), in.stamp())
			}
			e.await(t, (r+2)*rotateThreads, nil)
		}
	})
	e.res.busy += e.main.Now() - e.busyFrom
	e.endTimed()
}

func phasedSize(s int) uint32 {
	if s < phasedSmall {
		return 512
	}
	return 160 << 10
}

// phased is thread re-creation under a scavenger: generation 0 fills every
// thread's slots in set-up; each later generation frees the slots its
// predecessor left, refills them, churns, and exits. Idle gaps separate the
// timed generations; they count toward resident memory but not throughput.
func phased(e *env) {
	e.slots = make([][]slot, phasedThreads)
	for i := range e.slots {
		e.slots[i] = make([]slot, phasedSmall+phasedLarge)
	}
	gen := func(g, ops int) {
		e.workers(phasedThreads, fmt.Sprintf("gen%d", g), func(t *sim.Thread, i int) {
			in := e.input(g*phasedThreads + i)
			tab := e.slots[i]
			for s := range tab {
				e.drop(t, &tab[s])
			}
			for s := range tab {
				e.fill(t, &tab[s], phasedSize(s), in.stamp())
			}
			for op := 0; op < ops; op++ {
				s := in.slot(len(tab))
				e.drop(t, &tab[s])
				e.fill(t, &tab[s], phasedSize(s), in.stamp())
			}
		})
	}
	gen(0, 0)
	e.beginTimed(e.main)
	for g := 1; g <= phasedGens; g++ {
		from := e.main.Now()
		gen(g, phasedOps)
		e.res.busy += e.main.Now() - from
		if g < phasedGens {
			e.sleep(e.main, e.w.M.Cycles(phasedIdle))
		}
	}
	e.endTimed()
}
