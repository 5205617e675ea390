// Package sim implements a deterministic discrete-event simulation of a
// small shared-memory multiprocessor: simulated threads, a CPU scheduler
// with affinity and context-switch costs, and mutexes whose contention is
// resolved analytically on a busy-timeline.
//
// The design targets the workloads of Lever & Boreham (USENIX 2000):
// allocation-intensive loops whose interesting behaviour is lock contention,
// lock convoys, scheduler interleaving past the CPU count, and cache-line
// traffic. Simulated threads are goroutines that the engine resumes one at a
// time; they yield cooperatively at operation-batch boundaries, so every run
// is a pure function of the configuration seed.
//
// Accuracy trade-offs: mutexes keep a monotonic "busy until" horizon
// instead of a full interval set, critical sections never span yield
// points, and involuntary preemption is modelled by periodic quantum draws
// rather than by interrupting user code.
//
// # Node topology
//
// A machine may declare a NUMA topology: Config.Nodes splits the CPUs into
// contiguous equal blocks (Machine.NodeOfCPU), and a thread's node is
// derived from the CPU it last ran on (Thread.Node) — affinity, not
// pinning, exactly as on real hardware, so a migrated thread starts
// touching memory from its new node. The engine itself charges nothing for
// node distance; Costs.RemoteAccess is the multiplier the vm layer applies
// to memory-level costs (faults, refaults, memory-served misses, reuse
// hand-outs) that cross nodes, because only the vm layer knows where a
// page lives. With the default single node the topology machinery is
// entirely inert and the flat-SMP model of the paper is unchanged.
//
// # Contention points
//
// Synchronization pricing is unified under the ContentionPoint interface
// with two disciplines. Mutexes (Thread.Lock/TryLock) resolve contention
// analytically on the busy-timeline: acquisitions, handoff charges, waits,
// trylock failures. CAS points (NewCASPoint, Thread.CAS/AtomicAdd) price
// lock-free retry loops instead: a CAS estimates how many other threads
// updated the word within a recent hot window of 4000 cycles and charges
// about half that many failed attempts (4*Costs.MutexAtomic each, at most
// eight) before the successful one (Costs.MutexAtomic); AtomicAdd is the
// fetch-and-add variant that contends but cannot fail. Both register in
// the machine's point registry (Machine.Points) and report through the same
// PointStats, so a mutex design and a lock-free design are directly
// comparable: lock acquisitions and wait cycles on one side, CAS attempts,
// fails and retry cycles on the other.
package sim

// Time is a point or duration in simulated CPU cycles. All costs in the
// simulator are expressed in cycles of the simulated machine's clock; the
// Machine converts to seconds using its configured clock rate.
type Time int64

// Infinity is a time later than any reachable simulation time.
const Infinity Time = 1<<62 - 1

// maxTime returns the later of two times.
func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
