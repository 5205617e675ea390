package cache

import (
	"testing"

	"mtmalloc/internal/xrand"
)

// refModel is a map-keyed directory: every line is looked up by a key
// combining an address-space ID with the line number. It is the reference
// the caller-held Line protocol must reproduce access for access.
type refModel struct {
	costs      Costs
	lines      map[uint64]refLine
	stats      []CPUStats
	ownerFlips uint64
}

type refLine struct {
	owner   int8 // CPU with the dirty copy, -1 if none
	sharers uint64
}

func newRef(numCPUs int, costs Costs) *refModel {
	return &refModel{costs: costs, lines: map[uint64]refLine{}, stats: make([]CPUStats, numCPUs)}
}

func (m *refModel) key(space uint32, addr uint64) uint64 {
	return uint64(space)<<44 | addr>>LineShift
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
			return hitCost, FillNone, -1
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
		return hitCost, FillNone, -1
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
// the keyed reference with the same random (cpu, line, read/write) stream.
// Even-numbered accesses are settled the way the vm layer does: Hit first,
// Access when Hit declines. Hit must claim exactly the accesses the
// reference charges as hits, at the reference's cost, and must leave the
// line and every counter alone when it declines. Odd-numbered accesses go
// to Access alone, hits included. Every Access must match the reference's
// cost, fill and supplier. At the end per-CPU stats and owner flips must be
// identical. Two spaces share line numbers so the reference's space-keyed
// isolation is exercised too; the 64-CPU model reaches sharer bit 63.
func TestAccessMatchesKeyedReference(t *testing.T) {
	for _, cpus := range []int{4, 64} {
		for seed := uint64(1); seed <= 4; seed++ {
			m := NewModel(cpus, DefaultCosts())
			ref := newRef(cpus, DefaultCosts())
			const spaces, perSpace = 2, 12
			lines := make([]Line, spaces*perSpace)
			snap := make([]CPUStats, cpus)
			hits, accessHits := 0, 0
			r := xrand.New(seed, uint64(cpus))
			for i := 0; i < 20000; i++ {
				cpu := r.Intn(cpus)
				if i%7 == 0 {
					cpu = cpus - 1 // keep the top sharer bit busy
				}
				space, n := r.Intn(spaces), r.Intn(perSpace)
				write := r.Intn(3) == 0
				l := &lines[space*perSpace+n]
				refHits := ref.stats[cpu].Hits
				rc, rfill, rfrom := ref.access(cpu, ref.key(uint32(space+1), uint64(n)<<5), write)
				refHit := ref.stats[cpu].Hits != refHits

				if i%2 == 0 {
					copy(snap, m.stats)
					held, flips := *l, m.OwnerFlips
					if hc, hit := m.Hit(cpu, l, write); hit != refHit {
						t.Fatalf("cpus=%d seed=%d access %d (cpu %d line %d/%d write=%v): Hit = %v, reference hit = %v",
							cpus, seed, i, cpu, space, n, write, hit, refHit)
					} else if hit {
						if hc != rc {
							t.Fatalf("cpus=%d seed=%d access %d: Hit cost %d, reference %d", cpus, seed, i, hc, rc)
						}
						hits++
						continue
					}
					if *l != held || m.OwnerFlips != flips {
						t.Fatalf("cpus=%d seed=%d access %d: declined Hit changed the line or owner flips", cpus, seed, i)
					}
					for c := range snap {
						if m.stats[c] != snap[c] {
							t.Fatalf("cpus=%d seed=%d access %d: declined Hit changed cpu %d stats %+v -> %+v", cpus, seed, i, c, snap[c], m.stats[c])
						}
					}
				} else if refHit {
					accessHits++
				}
				c, fill, from := m.Access(cpu, l, write)
				if c != rc || fill != rfill || from != rfrom {
					t.Fatalf("cpus=%d seed=%d access %d (cpu %d line %d/%d write=%v): got (%d, %d, %d), reference (%d, %d, %d)",
						cpus, seed, i, cpu, space, n, write, c, fill, from, rc, rfill, rfrom)
				}
			}
			if hits == 0 || hits == 10000 || accessHits == 0 || accessHits == 10000 {
				t.Fatalf("cpus=%d seed=%d: Hit settled %d of its 10000 accesses, Access alone %d of its 10000; each stream must mix hits and misses",
					cpus, seed, hits, accessHits)
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
