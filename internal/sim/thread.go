package sim

import (
	"fmt"
	"runtime/debug"

	"mtmalloc/internal/xrand"
)

// threadState is the lifecycle of a simulated thread.
type threadState int

const (
	stateNew threadState = iota
	stateRunnable
	stateRunning
	stateBlocked // waiting in Join
	stateDone
)

// Thread is a simulated thread of execution. Thread bodies are ordinary Go
// functions run on their own goroutine; the engine resumes exactly one at a
// time, so bodies may freely mutate shared simulator state without real
// synchronization. A body interacts with simulated time only through the
// methods of this type (Charge, Lock, MaybeYield, ...).
type Thread struct {
	id      int
	Name    string
	machine *Machine

	clock  Time
	start  Time // clock when the body began executing
	finish Time // clock when the body returned

	state   threadState
	resume  chan struct{}
	yielded chan struct{}

	body func(*Thread)
	rng  *xrand.RNG

	// CPU bookkeeping. pin >= 0 binds the thread to that CPU: the scheduler
	// always dispatches it there, waiting for the CPU to free instead of
	// migrating (sched_setaffinity to a single CPU).
	lastCPU int
	pin     int

	// Batch/yield bookkeeping.
	opsSinceYield int
	batchStart    Time

	// Lock-hold accounting used by the preemption model: holdCycles
	// accumulates critical-section cycles since the last yield; holdFrac is
	// the fraction of the previous batch spent holding locks.
	holdCycles Time
	holdFrac   float64
	lastMutex  *Mutex
	holding    int // mutexes currently held; must be 0 at yield points
	// deschedHeld lists mutexes marked as held by this thread while it was
	// preempted; they are released when the thread is next dispatched.
	deschedHeld []*Mutex

	// Join bookkeeping.
	waiters []*Thread
	joining *Thread

	// panicked is the value a panicking body raised and panicStack the
	// goroutine stack at the panic, for the machine's error.
	panicked   any
	panicStack []byte

	// Ops counts simulated operations (MaybeYield calls); exported for
	// harness statistics.
	Ops uint64
}

// ID returns the thread's unique identifier (dense, starting at 0).
func (t *Thread) ID() int { return t.id }

// Now returns the thread's current simulated time.
func (t *Thread) Now() Time { return t.clock }

// CPU returns the CPU index the thread last ran on.
func (t *Thread) CPU() int { return t.lastCPU }

// Node returns the NUMA node of the CPU the thread last ran on (node 0
// before its first dispatch). It is derived from CPU affinity, not pinned:
// a thread the scheduler migrates across a node boundary starts touching
// memory from its new node, exactly as on real hardware.
func (t *Thread) Node() int { return t.machine.NodeOfCPU(t.lastCPU) }

// RNG returns the thread's private deterministic random stream.
func (t *Thread) RNG() *xrand.RNG { return t.rng }

// Pin binds the thread to one CPU (sched_setaffinity with a single-CPU
// mask): every future dispatch places it there, waiting for the CPU to free
// rather than migrating. A negative cpu clears the binding. Out-of-range
// CPUs are a programming error. The allocator service threads use this to
// own one core per node.
func (t *Thread) Pin(cpu int) {
	if cpu >= t.machine.cfg.CPUs {
		panic(fmt.Sprintf("sim: pinning thread %q to CPU %d of %d", t.Name, cpu, t.machine.cfg.CPUs))
	}
	if cpu < 0 {
		cpu = -1
	}
	t.pin = cpu
}

// Charge advances the thread's clock by the given number of cycles,
// representing CPU work. Negative charges are a programming error.
func (t *Thread) Charge(c Time) {
	if c < 0 {
		panic("sim: negative charge")
	}
	t.clock += c
}

// Lock acquires mu, advancing the clock past any analytic contention.
func (t *Thread) Lock(mu *Mutex) { mu.lockAt(t) }

// TryLock attempts to acquire mu without waiting.
func (t *Thread) TryLock(mu *Mutex) bool { return mu.tryLockAt(t) }

// Unlock releases mu.
func (t *Thread) Unlock(mu *Mutex) { mu.unlockAt(t) }

// CAS commits one compare-and-swap retry loop on p: the update always
// succeeds eventually, and the analytic model charges the retries it took
// (see CASPoint). Unlike Lock, there is no critical section: nothing is held
// afterwards, so a preempted caller never blocks anyone.
func (t *Thread) CAS(p *CASPoint) { p.update(t) }

// MaybeYield marks an operation boundary. Thread bodies (and the allocator
// entry points) call it once per logical operation; every batchOps
// operations or batchCycles simulated cycles the thread yields to the engine
// so other threads can interleave. Must not be called while holding a Mutex.
func (t *Thread) MaybeYield() {
	t.Ops++
	t.opsSinceYield++
	if t.opsSinceYield >= batchOps || t.clock-t.batchStart >= batchCycles {
		t.Yield()
	}
}

// Yield unconditionally returns control to the engine until the thread is
// next dispatched.
func (t *Thread) Yield() {
	if t.holding > 0 {
		panic(fmt.Sprintf("sim: thread %q yielded while holding %d mutex(es)", t.Name, t.holding))
	}
	t.endBatch()
	t.machine.switchToEngine(t)
	// Engine has re-dispatched us; batch accounting restarts in dispatch.
}

// endBatch folds the finished batch into the preemption statistics.
func (t *Thread) endBatch() {
	dur := t.clock - t.batchStart
	if dur > 0 {
		t.holdFrac = float64(t.holdCycles) / float64(dur)
		if t.holdFrac > 1 {
			t.holdFrac = 1
		}
	} else {
		t.holdFrac = 0
	}
	t.holdCycles = 0
	t.opsSinceYield = 0
}

// Sleep advances the thread's clock by d cycles without consuming CPU
// capacity: the CPU is released at the pre-sleep instant and the thread
// rejoins the run queue at its wake time, so other threads may run on that
// CPU for the whole duration (nanosleep, not a spin). Must not be called
// while holding a Mutex.
func (t *Thread) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if t.holding > 0 {
		panic(fmt.Sprintf("sim: thread %q slept while holding %d mutex(es)", t.Name, t.holding))
	}
	t.endBatch()
	t.machine.sleepThread(t, d)
}

// Spawn creates a new thread whose body starts at the caller's current time
// plus the configured spawn cost. It returns the child thread handle.
func (t *Thread) Spawn(name string, body func(*Thread)) *Thread {
	return t.machine.spawn(t, name, body)
}

// Join blocks until other's body has returned, advancing the caller's clock
// to at least other's finish time.
func (t *Thread) Join(other *Thread) {
	if other == t {
		panic("sim: thread joining itself")
	}
	if other.state != stateDone {
		t.joining = other
		other.waiters = append(other.waiters, t)
		t.state = stateBlocked
		t.endBatch()
		t.machine.switchToEngine(t)
	}
	if other.state != stateDone {
		panic("sim: woke from Join before target finished")
	}
	t.clock = maxTime(t.clock, other.finish)
	t.Charge(joinCost)
}

// Elapsed returns the simulated duration between the thread's first
// instruction and its last (valid after the thread finished, or the running
// duration so far).
func (t *Thread) Elapsed() Time {
	if t.state == stateDone {
		return t.finish - t.start
	}
	return t.clock - t.start
}

// ElapsedSeconds converts Elapsed to seconds on the thread's machine.
func (t *Thread) ElapsedSeconds() float64 {
	return t.machine.Seconds(t.Elapsed())
}

// run is the goroutine wrapper around the thread body.
func (t *Thread) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSignal); !isAbort {
				t.panicked, t.panicStack = r, debug.Stack()
			}
		}
		t.finishThread()
	}()
	<-t.resume // wait for first dispatch
	t.machine.checkAbort()
	t.start = t.clock
	t.body(t)
}

// finishThread marks the thread done and returns control to the engine.
func (t *Thread) finishThread() {
	t.state = stateDone
	t.finish = t.clock
	// Release any descheduled-holder markings; the thread can no longer
	// complete a critical section.
	for len(t.deschedHeld) > 0 {
		t.deschedHeld[0].clearDescheduled()
	}
	t.machine.threadFinished(t)
}

// abortSignal is panicked through thread bodies when the machine aborts.
type abortSignal struct{}
