// Package cache models the CPU cache hierarchy of a small SMP at the level
// the paper's benchmarks care about: which CPU's cache holds which line, in
// what coherence state, and what each access costs in cycles.
//
// The model is a MESI-lite directory. Each line is either invalid
// everywhere, shared (clean) by a set of CPUs, or owned (dirty) by exactly
// one CPU. Capacity and conflict misses are not modelled — the paper's
// workloads have footprints far below the 512 KB L2 caches of the test
// machines — so every miss is a cold or coherence miss. That makes the model
// exact for the false-sharing experiment (benchmark 3) and a good
// approximation for allocator-metadata "cache sloshing".
//
// The model holds the protocol and the per-CPU counters but stores no
// lines. Each directory entry (Line) lives with the page it describes: the
// vm layer keeps one beside the bytes of each touched line in its page
// records and hands it to Hit, and on a miss to Access, so a line's state
// is dropped with its page on unmap or release.
// Because every address space owns its pages, two processes never generate
// coherence traffic against one another even when their heaps use
// identical virtual addresses; this is precisely the asymmetry benchmark 1
// measures between the two-thread and two-process configurations.
package cache

import "math/bits"

// Costs is the per-access cycle cost model.
type Costs struct {
	Hit        int64 // line present in this CPU's cache in a usable state
	MissMemory int64 // cold miss or clean miss served from memory
	MissRemote int64 // miss served by another CPU's dirty copy (cache-to-cache)
	Upgrade    int64 // write to a line held shared: invalidate others, no data transfer
}

// DefaultCosts returns constants in the right ratios for a late-1990s
// Intel SMP (L1 hit a couple of cycles, memory tens of cycles, dirty remote
// transfers slightly worse than memory).
func DefaultCosts() Costs {
	return Costs{Hit: 2, MissMemory: 40, MissRemote: 60, Upgrade: 12}
}

// Line is the directory entry for one cache line. The caller owns it and
// passes it to Hit and Access by pointer. The zero Line is invalid in every cache.
type Line struct {
	sharers uint64 // bitmask of CPUs with a readable copy
	owner   uint8  // 1 + the CPU with the dirty copy, 0 if none
}

// CPUStats aggregates access outcomes per CPU.
type CPUStats struct {
	Hits         uint64
	ColdMisses   uint64
	RemoteMisses uint64 // served from another CPU's dirty line
	Upgrades     uint64
	Invalidated  uint64 // lines this CPU lost to another CPU's write
}

// Model is the coherence protocol and its per-CPU counters for one
// machine.
type Model struct {
	numCPUs int
	shift   uint
	costs   Costs
	stats   []CPUStats

	// OwnerFlips counts transitions of dirty ownership between distinct
	// CPUs: the "ping-pong" statistic.
	OwnerFlips uint64
}

// MinLineShift is log2 of the narrowest line NewModel accepts: 32 bytes, so
// a 4 KB page holds at most 128 lines.
const MinLineShift = 5

// NewModel creates a directory for numCPUs CPUs and 2^lineShift-byte lines.
func NewModel(numCPUs int, lineShift uint, costs Costs) *Model {
	if numCPUs < 1 || numCPUs > 64 {
		panic("cache: unsupported CPU count")
	}
	if lineShift < MinLineShift || lineShift > 12 {
		panic("cache: unreasonable line size")
	}
	return &Model{
		numCPUs: numCPUs,
		shift:   lineShift,
		costs:   costs,
		stats:   make([]CPUStats, numCPUs),
	}
}

// LineSize returns the modelled cache line size in bytes.
func (m *Model) LineSize() uint64 { return 1 << m.shift }

// LineShift returns log2 of the line size.
func (m *Model) LineShift() uint { return m.shift }

// Costs returns the cost model.
func (m *Model) Costs() Costs { return m.costs }

// Fill classifies where an access's data came from, for callers that price
// the interconnect distance of the fill (the vm layer's NUMA surcharge).
type Fill int

const (
	FillNone   Fill = iota // hit or upgrade: no data transfer
	FillMemory             // served from memory (cold or clean miss)
	FillCache              // served from another CPU's dirty copy
)

// Hit settles an access that hits: cpu holds l dirty, or a read finds l
// clean in cpu's cache. It counts the hit and returns its cost and true.
// Otherwise it returns false and changes nothing, and the caller settles the
// access with Access. It is the one definition of a hit, small enough to
// inline into the caller's access path; Access starts with it.
func (m *Model) Hit(cpu int, l *Line, write bool) (int64, bool) {
	if l.owner == uint8(cpu+1) || !write && l.owner == 0 && l.sharers&(1<<uint(cpu)) != 0 {
		m.stats[cpu].Hits++
		return m.costs.Hit, true
	}
	return 0, false
}

// Access charges one read or write by cpu against line l, updating l in
// place. It returns the cost in cycles, where the data came from, and —
// for cache-to-cache transfers — which CPU supplied it (-1 otherwise). The
// vm layer uses fill and from to decide whether a fill crossed a NUMA node
// boundary: a memory fill travels from the page's home node, a
// cache-to-cache fill from the supplier CPU's node.
func (m *Model) Access(cpu int, l *Line, write bool) (cost int64, fill Fill, from int) {
	if c, ok := m.Hit(cpu, l, write); ok {
		return c, FillNone, -1
	}
	bit := uint64(1) << uint(cpu)
	me := uint8(cpu + 1)
	st := &m.stats[cpu]

	if write {
		switch {
		case l.owner != 0:
			// Another CPU has the dirty copy: fetch it and take ownership.
			from := int(l.owner) - 1
			st.RemoteMisses++
			m.stats[from].Invalidated++
			m.OwnerFlips++
			*l = Line{owner: me, sharers: bit}
			return m.costs.MissRemote, FillCache, from
		case l.sharers == bit:
			// We have the only clean copy: silent upgrade still costs a bus
			// transaction on this era of hardware.
			st.Upgrades++
			*l = Line{owner: me, sharers: bit}
			return m.costs.Upgrade, FillNone, -1
		case l.sharers&bit != 0:
			// We share it with others: invalidate them.
			st.Upgrades++
			m.chargeInvalidations(l.sharers &^ bit)
			*l = Line{owner: me, sharers: bit}
			return m.costs.Upgrade, FillNone, -1
		case l.sharers != 0:
			// Others hold it clean, we do not: read-for-ownership from
			// memory plus invalidations.
			st.ColdMisses++
			m.chargeInvalidations(l.sharers)
			*l = Line{owner: me, sharers: bit}
			return m.costs.MissMemory, FillMemory, -1
		default:
			st.ColdMisses++
			*l = Line{owner: me, sharers: bit}
			return m.costs.MissMemory, FillMemory, -1
		}
	}

	// Read.
	switch {
	case l.owner != 0:
		// Dirty in another cache: cache-to-cache transfer, both end shared.
		from := int(l.owner) - 1
		st.RemoteMisses++
		m.OwnerFlips++
		*l = Line{sharers: l.sharers | bit | 1<<uint(from)}
		return m.costs.MissRemote, FillCache, from
	default:
		st.ColdMisses++
		l.sharers |= bit
		return m.costs.MissMemory, FillMemory, -1
	}
}

// chargeInvalidations counts one lost line for every CPU in mask, visiting
// only the set bits.
func (m *Model) chargeInvalidations(mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		m.stats[bits.TrailingZeros64(mask)].Invalidated++
	}
}

// Stats returns a copy of the per-CPU statistics.
func (m *Model) Stats() []CPUStats {
	out := make([]CPUStats, len(m.stats))
	copy(out, m.stats)
	return out
}

// SteadyWriteCost returns the expected per-write cost, in cycles, for a CPU
// repeatedly writing a line that `writers` distinct CPUs write concurrently
// at similar rates. With a single writer the line stays in Modified state
// (pure hits); with more, every write in a round-robin interleaving finds
// the line dirty in another cache and pays a remote transfer.
//
// This analytic form is what lets benchmark 3 advance 100-million-iteration
// write loops in O(1) simulated events: the sharing topology is fixed
// between allocation events, so the steady-state per-iteration cost is
// constant.
func (m *Model) SteadyWriteCost(writers int) int64 {
	if writers <= 1 {
		return m.costs.Hit
	}
	// Each write is preceded (w-1)/w of the time by another CPU's write in
	// a fair interleaving; charge the remote transfer proportionally.
	frac := float64(writers-1) / float64(writers)
	return m.costs.Hit + int64(frac*float64(m.costs.MissRemote)+0.5)
}
