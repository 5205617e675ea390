package cache

import (
	"testing"

	"mtmalloc/internal/xrand"
)

// refModel is a map-keyed directory: every line is looked up by a key
// combining an address-space ID with the line number. It is the reference
// the caller-held Line protocol must reproduce access for access.
type refModel struct {
	shift      uint
	costs      Costs
	lines      map[uint64]refLine
	stats      []CPUStats
	ownerFlips uint64
}

type refLine struct {
	owner   int8 // CPU with the dirty copy, -1 if none
	sharers uint64
}

func newRef(numCPUs int, shift uint, costs Costs) *refModel {
	return &refModel{shift: shift, costs: costs, lines: map[uint64]refLine{}, stats: make([]CPUStats, numCPUs)}
}

func (m *refModel) key(space uint32, addr uint64) uint64 {
	return uint64(space)<<44 | addr>>m.shift
}

func (m *refModel) load(key uint64) refLine {
	if l, ok := m.lines[key]; ok {
		return l
	}
	return refLine{owner: -1}
}

func (m *refModel) invalidate(mask uint64) {
	for c := 0; mask != 0; c++ {
		if mask&1 != 0 {
			m.stats[c].Invalidated++
		}
		mask >>= 1
	}
}

func (m *refModel) access(cpu int, key uint64, write bool) (int64, Fill, int) {
	l := m.load(key)
	bit := uint64(1) << uint(cpu)
	st := &m.stats[cpu]
	if write {
		switch {
		case l.owner == int8(cpu):
			st.Hits++
			return m.costs.Hit, FillNone, -1
		case l.owner >= 0:
			st.RemoteMisses++
			m.stats[l.owner].Invalidated++
			m.ownerFlips++
			m.lines[key] = refLine{owner: int8(cpu), sharers: bit}
			return m.costs.MissRemote, FillCache, int(l.owner)
		case l.sharers == bit:
			st.Upgrades++
			m.lines[key] = refLine{owner: int8(cpu), sharers: bit}
			return m.costs.Upgrade, FillNone, -1
		case l.sharers&bit != 0:
			st.Upgrades++
			m.invalidate(l.sharers &^ bit)
			m.lines[key] = refLine{owner: int8(cpu), sharers: bit}
			return m.costs.Upgrade, FillNone, -1
		case l.sharers != 0:
			st.ColdMisses++
			m.invalidate(l.sharers)
			m.lines[key] = refLine{owner: int8(cpu), sharers: bit}
			return m.costs.MissMemory, FillMemory, -1
		default:
			st.ColdMisses++
			m.lines[key] = refLine{owner: int8(cpu), sharers: bit}
			return m.costs.MissMemory, FillMemory, -1
		}
	}
	switch {
	case l.owner == int8(cpu), l.owner < 0 && l.sharers&bit != 0:
		st.Hits++
		return m.costs.Hit, FillNone, -1
	case l.owner >= 0:
		st.RemoteMisses++
		m.ownerFlips++
		m.lines[key] = refLine{owner: -1, sharers: l.sharers | bit | 1<<uint(l.owner)}
		return m.costs.MissRemote, FillCache, int(l.owner)
	default:
		st.ColdMisses++
		m.lines[key] = refLine{owner: -1, sharers: l.sharers | bit}
		return m.costs.MissMemory, FillMemory, -1
	}
}

// TestAccessMatchesKeyedReference drives the caller-held Line protocol and
// the keyed reference with the same random (cpu, line, read/write) stream
// and requires identical cost, fill and supplier on every access, then
// identical per-CPU stats and owner flips. Two spaces share line numbers
// so the reference's space-keyed isolation is exercised too; the 64-CPU
// model reaches sharer bit 63.
func TestAccessMatchesKeyedReference(t *testing.T) {
	for _, cpus := range []int{4, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			m := NewModel(cpus, 5, DefaultCosts())
			ref := newRef(cpus, 5, DefaultCosts())
			const spaces, perSpace = 2, 12
			lines := make([]Line, spaces*perSpace)
			r := xrand.New(seed, uint64(cpus))
			for i := 0; i < 20000; i++ {
				cpu := r.Intn(cpus)
				if i%7 == 0 {
					cpu = cpus - 1 // keep the top sharer bit busy
				}
				space, n := r.Intn(spaces), r.Intn(perSpace)
				write := r.Intn(3) == 0
				c, fill, from := m.Access(cpu, &lines[space*perSpace+n], write)
				rc, rfill, rfrom := ref.access(cpu, ref.key(uint32(space+1), uint64(n)<<5), write)
				if c != rc || fill != rfill || from != rfrom {
					t.Fatalf("cpus=%d seed=%d access %d (cpu %d line %d/%d write=%v): got (%d, %d, %d), reference (%d, %d, %d)",
						cpus, seed, i, cpu, space, n, write, c, fill, from, rc, rfill, rfrom)
				}
			}
			got := m.Stats()
			for cpu := range got {
				if got[cpu] != ref.stats[cpu] {
					t.Fatalf("cpus=%d seed=%d cpu %d stats %+v, reference %+v", cpus, seed, cpu, got[cpu], ref.stats[cpu])
				}
			}
			if m.OwnerFlips != ref.ownerFlips {
				t.Fatalf("cpus=%d seed=%d OwnerFlips %d, reference %d", cpus, seed, m.OwnerFlips, ref.ownerFlips)
			}
		}
	}
}
