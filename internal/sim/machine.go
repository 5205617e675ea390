package sim

import (
	"errors"
	"fmt"

	"mtmalloc/internal/xrand"
)

// Costs is the machine-level cost model, in cycles. Per-allocator and cache
// costs live in their own packages; these are the scheduler- and
// synchronization-level constants that differ between machines (joinCost
// and mutexMaxWait are the ones that do not).
type Costs struct {
	ContextSwitch Time // charged to an incoming thread when a CPU changes occupant
	ThreadSpawn   Time // charged to the parent at Spawn; also the child's start offset
	MutexAtomic   Time // uncontended lock or unlock instruction cost
	MutexHandoff  Time // extra cost per ownership change on a contended lock
	// MutexHotWindow is how long after a contended acquisition a mutex keeps
	// charging per-acquisition handoffs (models per-critical-section
	// alternation that batch-granular scheduling cannot observe).
	MutexHotWindow Time
	// DeschedResidual is the extra delay charged when a lock is held by a
	// thread that was preempted mid-critical-section.
	DeschedResidual Time
	// SpawnJitter randomizes child start times by [0, SpawnJitter) cycles so
	// that repeated runs explore different interleavings, like real runs do.
	SpawnJitter Time
	// RemoteAccess is the NUMA remote-access multiplier: memory-level costs
	// (page faults, refaults, data-carrying cache fills, reuse hand-outs)
	// that cross a node boundary are scaled by it. Values at or below 1 —
	// including the zero value — price the interconnect as free: cross-node
	// events are still counted on a multi-node machine, they just charge
	// nothing extra. Typical small NUMA interconnects sit around 1.5-3x.
	// The multiplier is consumed by the vm layer, which knows page homes;
	// it lives here because it is a property of the machine, not of one
	// address space.
	RemoteAccess float64
}

// DefaultCosts returns a reasonable late-1990s SMP cost model. Profiles in
// the bench package override the constants that matter per machine.
func DefaultCosts() Costs {
	return Costs{
		ContextSwitch:   4000,
		ThreadSpawn:     60000,
		MutexAtomic:     12,
		MutexHandoff:    600,
		MutexHotWindow:  150000,
		DeschedResidual: 2000,
		SpawnJitter:     2500,
	}
}

// Config describes a simulated machine.
type Config struct {
	CPUs     int
	ClockMHz float64
	Costs    Costs
	Seed     uint64

	// Nodes is the number of NUMA nodes the CPUs are spread over. CPUs map
	// onto nodes in contiguous blocks (CPU c lives on node c/(CPUs/Nodes),
	// the layout of every small NUMA box of the era). 0 or 1 models the flat
	// SMPs the paper measured; the node of a memory page and the cost of
	// touching it from the wrong node are tracked by the vm layer using
	// NodeOfCPU and Costs.RemoteAccess.
	Nodes int
}

// joinCost is charged to a joiner after the target finishes.
const joinCost Time = 2000

// mutexMaxWait caps a single contended Lock wait. A real wait lasts at most
// a few critical sections; without the cap, a thread whose clock lags
// another's committed batch would charge the whole batch gap. Saturated
// locks are unaffected: their per-acquire waits are one critical section
// long.
const mutexMaxWait Time = 4000

// batchOps bounds how many operations a thread does between yields and
// batchCycles how many cycles it runs: a thread yields at the operation
// boundary where either is reached. Together they set the engine's
// interleaving granularity.
const (
	batchOps         = 256
	batchCycles Time = 250000
)

// defaultQuantum is the involuntary-preemption period per CPU, about 20 ms
// at 500 MHz (Linux 2.2-era timeslices were tens of ms). Once per quantum of
// busy time, the engine draws whether the preempted thread was inside a
// critical section (probability = its recent lock-hold fraction) and, if
// so, marks that mutex held until the thread runs again.
const defaultQuantum Time = 10000000

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.CPUs == 0 {
		c.CPUs = 1
	}
	if c.ClockMHz == 0 {
		c.ClockMHz = 500
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
	if c.Nodes < 1 {
		c.Nodes = 1
	}
	if c.Nodes > c.CPUs {
		c.Nodes = c.CPUs
	}
	return c
}

// cpuState tracks one simulated CPU.
type cpuState struct {
	freeAt     Time
	lastThread int // thread id of last occupant, -1 if none
	// nextPreemptCheck is the busy-time horizon for the next involuntary
	// preemption draw on this CPU.
	nextPreemptCheck Time
}

// Machine is a simulated multiprocessor plus its event engine.
type Machine struct {
	cfg     Config
	cpus    []cpuState
	threads []*Thread
	// runnable is a slice used as a priority queue ordered by (clock, id);
	// sizes here are tiny (≤ thread count) so O(n) selection is fine and
	// keeps the code obvious.
	runnable []*Thread

	rng      *xrand.RNG
	engineCh chan *Thread // thread handing control back to the engine

	// nodeOf maps each CPU to its NUMA node (see NodeOfCPU), computed once
	// so the per-access lookup is a load, not two divisions.
	nodeOf []int

	// points registers every contention point (mutex or CAS) created on the
	// machine, in creation order, for harness-level enumeration.
	points []ContentionPoint

	// quantum and casMaxRetries are defaultQuantum and
	// defaultCASMaxRetries, except where a same-package test narrows them
	// before Run.
	quantum       Time
	casMaxRetries int

	liveThreads int
	ran         bool
	aborting    bool
	failure     error

	// OnSpawn, when set, runs in the parent's context whenever a thread is
	// spawned. The harness uses it to charge stack-page faults to thread
	// creation (benchmark 2's +1.1 pages per round term).
	OnSpawn func(parent, child *Thread)

	// ContextSwitches counts occupant changes across all CPUs.
	ContextSwitches uint64
	// PreemptDraws and PreemptMidCS count involuntary preemption draws and
	// how many found the victim inside a critical section.
	PreemptDraws uint64
	PreemptMidCS uint64
}

// NewMachine creates a machine from cfg.
func NewMachine(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:           cfg,
		cpus:          make([]cpuState, cfg.CPUs),
		rng:           xrand.New(cfg.Seed, 0x4D414348), // "MACH"
		engineCh:      make(chan *Thread),
		quantum:       defaultQuantum,
		casMaxRetries: defaultCASMaxRetries,
	}
	for i := range m.cpus {
		m.cpus[i].lastThread = -1
	}
	m.nodeOf = make([]int, cfg.CPUs)
	per := (cfg.CPUs + cfg.Nodes - 1) / cfg.Nodes
	for cpu := range m.nodeOf {
		m.nodeOf[cpu] = min(cpu/per, cfg.Nodes-1)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Nodes returns the machine's NUMA node count (1 for a flat SMP).
func (m *Machine) Nodes() int { return m.cfg.Nodes }

// NodeOfCPU returns the NUMA node CPU cpu belongs to. CPUs map onto nodes
// in contiguous blocks of ceil(CPUs/Nodes); negative CPU indices (a thread
// never dispatched) report node 0. A CPU past the last is a programming
// error and panics.
func (m *Machine) NodeOfCPU(cpu int) int {
	if cpu < 0 {
		return 0
	}
	return m.nodeOf[cpu]
}

// RemoteMultiplier returns the configured cross-node access multiplier,
// normalized so flat machines (zero or sub-1 values) report exactly 1.
func (m *Machine) RemoteMultiplier() float64 {
	if m.cfg.Costs.RemoteAccess <= 1 {
		return 1
	}
	return m.cfg.Costs.RemoteAccess
}

// Seconds converts cycles to seconds at the machine's clock rate.
func (m *Machine) Seconds(c Time) float64 {
	return float64(c) / (m.cfg.ClockMHz * 1e6)
}

// Cycles converts seconds to cycles at the machine's clock rate.
func (m *Machine) Cycles(sec float64) Time {
	return Time(sec * m.cfg.ClockMHz * 1e6)
}

// Run executes main as the first thread and drives the engine until every
// thread has finished. It returns the first body panic as an error.
func (m *Machine) Run(main func(*Thread)) error {
	if m.ran {
		return errors.New("sim: machine already ran")
	}
	m.ran = true
	for i := range m.cpus {
		m.cpus[i].nextPreemptCheck = m.quantum
	}
	root := m.newThread(nil, "main", main)
	root.state = stateRunnable
	m.runnable = append(m.runnable, root)
	m.loop()
	if m.failure != nil {
		return m.failure
	}
	return nil
}

// newThread allocates a thread and starts its goroutine (parked).
func (m *Machine) newThread(parent *Thread, name string, body func(*Thread)) *Thread {
	t := &Thread{
		id:      len(m.threads),
		Name:    name,
		machine: m,
		resume:  make(chan struct{}),
		body:    body,
		lastCPU: -1,
		pin:     -1,
		rng:     xrand.New(m.cfg.Seed, uint64(len(m.threads))+1),
	}
	if parent != nil {
		t.clock = parent.clock
	}
	m.threads = append(m.threads, t)
	m.liveThreads++
	go t.run()
	return t
}

// spawn implements Thread.Spawn.
func (m *Machine) spawn(parent *Thread, name string, body func(*Thread)) *Thread {
	c := &m.cfg.Costs
	parent.Charge(c.ThreadSpawn)
	child := m.newThread(parent, name, body)
	child.clock = parent.clock + Time(parent.rng.Jitter(int64(c.SpawnJitter)))
	child.state = stateRunnable
	m.runnable = append(m.runnable, child)
	if m.OnSpawn != nil {
		m.OnSpawn(parent, child)
	}
	// A fresh thread waking can preempt a runnable thread mid-operation on a
	// busy machine (wakeup preemption); give the engine a draw opportunity.
	m.preemptDrawOnSpawn(parent)
	return child
}

// loop is the engine: repeatedly dispatch the runnable thread with the
// minimum clock until no threads remain.
func (m *Machine) loop() {
	for m.liveThreads > 0 {
		t := m.takeMinRunnable()
		if t == nil {
			if m.liveThreads > 0 {
				m.failure = fmt.Errorf("sim: deadlock: %d live threads, none runnable", m.liveThreads)
				m.abortAll()
				continue
			}
			return
		}
		m.dispatch(t)
		m.resumeThread(t)
	}
}

// takeMinRunnable removes and returns the runnable thread with the smallest
// (clock, id), or nil if none.
func (m *Machine) takeMinRunnable() *Thread {
	best := -1
	for i, t := range m.runnable {
		if best == -1 {
			best = i
			continue
		}
		b := m.runnable[best]
		if t.clock < b.clock || (t.clock == b.clock && t.id < b.id) {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	t := m.runnable[best]
	m.runnable = append(m.runnable[:best], m.runnable[best+1:]...)
	return t
}

// dispatch places t on a CPU, charging scheduling costs and running the
// involuntary-preemption draw when a quantum boundary has passed.
func (m *Machine) dispatch(t *Thread) {
	cpu := m.pickCPU(t)
	cs := &m.cpus[cpu]
	start := maxTime(t.clock, cs.freeAt)
	if cs.lastThread != t.id {
		m.ContextSwitches++
		start += m.cfg.Costs.ContextSwitch
		if cs.lastThread >= 0 {
			m.preemptDrawOnSwitch(cs, m.threads[cs.lastThread], start)
		}
	}
	t.clock = start
	t.lastCPU = cpu
	cs.lastThread = t.id
	t.state = stateRunning
	t.batchStart = t.clock
	// Release any mutexes this thread was holding while descheduled.
	for len(t.deschedHeld) > 0 {
		t.deschedHeld[0].clearDescheduled()
	}
}

// pickCPU chooses the CPU for t: its last CPU if that is free by t's clock
// (affinity), otherwise the CPU that can run it earliest, breaking ties in
// favour of the CPU that has been idle longest so threads spread across the
// machine instead of stacking on CPU 0.
func (m *Machine) pickCPU(t *Thread) int {
	if t.pin >= 0 {
		// Pinned threads never migrate: dispatch waits for the pinned CPU to
		// free instead of looking for an earlier slot elsewhere.
		return t.pin
	}
	if t.lastCPU >= 0 && m.cpus[t.lastCPU].freeAt <= t.clock {
		return t.lastCPU
	}
	best, bestStart, bestFree := 0, Infinity, Infinity
	for i := range m.cpus {
		s := maxTime(t.clock, m.cpus[i].freeAt)
		if s < bestStart || (s == bestStart && m.cpus[i].freeAt < bestFree) {
			best, bestStart, bestFree = i, s, m.cpus[i].freeAt
		}
	}
	return best
}

// preemptDrawOnSwitch models quantum-expiry preemption: when a CPU changes
// occupant past a quantum boundary and the previous occupant is still
// runnable (it wanted to keep running but was displaced), draw whether it
// was interrupted inside a critical section.
func (m *Machine) preemptDrawOnSwitch(cs *cpuState, prev *Thread, now Time) {
	if now < cs.nextPreemptCheck {
		return
	}
	cs.nextPreemptCheck = now + m.quantum
	if prev.state != stateRunnable {
		return
	}
	m.drawMidCS(prev)
}

// preemptDrawOnSpawn models wakeup preemption: a freshly created thread may
// displace whichever runnable thread would currently be on CPU. Relevant
// mainly when runnable threads exceed CPUs (always true on a uniprocessor
// with concurrent chains, which is benchmark 2's leak mechanism).
func (m *Machine) preemptDrawOnSpawn(parent *Thread) {
	if len(m.runnable) < m.cfg.CPUs {
		return
	}
	// Pick the min-clock runnable thread other than the parent: it is the
	// one conceptually on CPU at this moment. Threads that have never used
	// a mutex cannot be mid-critical-section, so skip them.
	var victim *Thread
	for _, t := range m.runnable {
		if t == parent || t.lastMutex == nil {
			continue
		}
		if victim == nil || t.clock < victim.clock {
			victim = t
		}
	}
	if victim != nil {
		m.drawMidCS(victim)
	}
}

// drawMidCS decides whether victim was preempted while holding its most
// recent mutex, with probability equal to its recent lock-hold fraction.
func (m *Machine) drawMidCS(victim *Thread) {
	m.PreemptDraws++
	if victim.lastMutex == nil || victim.holdFrac <= 0 {
		return
	}
	if victim.lastMutex.heldBy != nil {
		return
	}
	if m.rng.Float64() < victim.holdFrac {
		m.PreemptMidCS++
		victim.lastMutex.markDescheduled(victim)
	}
}

// sleepThread parks t until its clock advances by d, releasing its CPU at
// the pre-sleep instant: unlike the yield path, the busy interval ends where
// the sleep begins, so sleeping threads consume no CPU capacity.
func (m *Machine) sleepThread(t *Thread, d Time) {
	if t.lastCPU >= 0 {
		if cs := &m.cpus[t.lastCPU]; cs.lastThread == t.id {
			cs.freeAt = t.clock
		}
	}
	t.clock += d
	t.state = stateRunnable
	m.runnable = append(m.runnable, t)
	m.engineCh <- t
	<-t.resume
	m.checkAbort()
}

// switchToEngine parks the calling thread and wakes the engine.
func (m *Machine) switchToEngine(t *Thread) {
	if t.state == stateRunning {
		t.state = stateRunnable
		m.runnable = append(m.runnable, t)
	}
	if cs := &m.cpus[t.lastCPU]; cs.lastThread == t.id {
		cs.freeAt = t.clock
	}
	m.engineCh <- t
	<-t.resume
	m.checkAbort()
}

// resumeThread hands control to t and waits for it to come back.
func (m *Machine) resumeThread(t *Thread) {
	t.resume <- struct{}{}
	<-m.engineCh
}

// threadFinished is called from the thread goroutine when its body returns.
func (m *Machine) threadFinished(t *Thread) {
	if cs := &m.cpus[maxInt(t.lastCPU, 0)]; t.lastCPU >= 0 && cs.lastThread == t.id {
		cs.freeAt = t.clock
	}
	m.liveThreads--
	if t.panicked != nil && m.failure == nil {
		m.failure = panicError(t)
		m.aborting = true
	}
	// Wake joiners at or after our finish time.
	for _, w := range t.waiters {
		w.joining = nil
		w.state = stateRunnable
		w.clock = maxTime(w.clock, t.finish)
		m.runnable = append(m.runnable, w)
	}
	t.waiters = nil
	m.engineCh <- t
}

// panicError reports a thread's panic with the goroutine stack at the
// panic. An error value is wrapped, so errors.As and errors.Is reach it
// through Run's error — a vm.Fault, or the ErrNoMem behind a vm.OOMFault.
func panicError(t *Thread) error {
	if err, ok := t.panicked.(error); ok {
		return fmt.Errorf("sim: thread %q panicked: %w\n%s", t.Name, err, t.panicStack)
	}
	return fmt.Errorf("sim: thread %q panicked: %v\n%s", t.Name, t.panicked, t.panicStack)
}

// abortAll unblocks every live thread with an abort panic so their
// goroutines exit; used on deadlock or body panic.
func (m *Machine) abortAll() {
	m.aborting = true
	for _, t := range m.threads {
		if t.state == stateRunnable || t.state == stateBlocked {
			t.state = stateRunning
			m.resumeThread(t)
		}
	}
	m.runnable = nil
}

// checkAbort panics with an abortSignal when the machine is tearing down;
// called from thread context at resume points.
func (m *Machine) checkAbort() {
	if m.aborting {
		panic(abortSignal{})
	}
}

// Threads returns all threads ever created (finished or not).
func (m *Machine) Threads() []*Thread { return m.threads }

// Points returns every contention point created on the machine, in creation
// order.
func (m *Machine) Points() []ContentionPoint { return m.points }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
