package vm

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
)

// numaSetup builds a multi-node machine with a remote-access multiplier and
// an address space on it.
func numaSetup(cpus, nodes int) (*sim.Machine, *AddressSpace) {
	costs := sim.DefaultCosts()
	costs.RemoteAccess = 2.0
	m := sim.NewMachine(sim.Config{CPUs: cpus, Nodes: nodes, ClockMHz: 100, Costs: costs, Seed: 1})
	c := cache.NewModel(cpus, cache.DefaultCosts())
	return m, New(1, m, c)
}

// TestFirstTouchHomesLocally: an unbound mapping's pages are homed on the
// toucher's node, so nothing is ever charged remote.
func TestFirstTouchHomesLocally(t *testing.T) {
	m, as := numaSetup(2, 2)
	err := m.Run(func(th *sim.Thread) {
		addr, err := as.Mmap(th, PageSize, "anon")
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		as.Write8(th, addr, 1)
		st := as.Stats()
		if st.RemoteAccesses != 0 || st.RemoteFaults != 0 {
			t.Errorf("first-touch local fault charged remote: %+v", st)
		}
		node := th.Node()
		if st.NodeResidentBytes[node] == 0 {
			t.Errorf("NodeResidentBytes[%d] = 0 after local touch", node)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBoundMappingChargesRemoteFaultAndMisses: a mapping bound to another
// node pays the multiplier on its first-touch fault and on the memory miss
// of the access, and the page is homed on the bound node.
func TestBoundMappingChargesRemoteFaultAndMisses(t *testing.T) {
	m, as := numaSetup(2, 2)
	err := m.Run(func(th *sim.Thread) {
		other := 1 - th.Node()
		addr, err := as.MmapOnNode(th, PageSize, "bound", other)
		if err != nil {
			t.Errorf("MmapOnNode: %v", err)
			return
		}
		before := th.Now()
		as.Write8(th, addr, 1)
		remoteCost := th.Now() - before

		st := as.Stats()
		if st.RemoteFaults != 1 {
			t.Errorf("RemoteFaults = %d, want 1", st.RemoteFaults)
		}
		// The fault and the access's cold miss both crossed the node.
		if st.RemoteAccesses < 2 {
			t.Errorf("RemoteAccesses = %d, want >= 2 (fault + miss)", st.RemoteAccesses)
		}
		if st.RemoteAccessCycles == 0 {
			t.Error("RemoteAccessCycles = 0: the multiplier charged nothing")
		}
		if st.NodeResidentBytes[other] != PageSize {
			t.Errorf("NodeResidentBytes[%d] = %d, want one page", other, st.NodeResidentBytes[other])
		}

		// The same first touch against a local page must be cheaper.
		laddr, err := as.Mmap(th, PageSize, "local")
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		before = th.Now()
		as.Write8(th, laddr, 1)
		if localCost := th.Now() - before; localCost >= remoteCost {
			t.Errorf("local first touch (%d cycles) not cheaper than remote (%d)", localCost, remoteCost)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRehomesOnRefault: ReleasePages drops a page's home with its
// frame; the refault re-homes it by first touch, so a page the scavenger
// released migrates to whoever needs it next.
func TestReleaseRehomesOnRefault(t *testing.T) {
	m, as := numaSetup(2, 2)
	err := m.Run(func(th *sim.Thread) {
		other := 1 - th.Node()
		addr, err := as.MmapOnNode(th, PageSize, "bound", other)
		if err != nil {
			t.Errorf("MmapOnNode: %v", err)
			return
		}
		as.Write8(th, addr, 1)
		if n := as.ReleasePages(th, addr, PageSize); n != PageSize {
			t.Errorf("ReleasePages = %d, want one page", n)
		}
		st := as.Stats()
		if st.NodeResidentBytes[other] != 0 {
			t.Errorf("released page still resident on node %d", other)
		}
		// Refault: the binding wins again for a bound VMA.
		as.Write8(th, addr, 2)
		st = as.Stats()
		if st.NodeResidentBytes[other] != PageSize {
			t.Errorf("refault did not re-home to the bound node: %v", st.NodeResidentBytes)
		}
		if st.Refaults != 1 || st.RemoteFaults != 2 {
			t.Errorf("Refaults=%d RemoteFaults=%d, want 1/2", st.Refaults, st.RemoteFaults)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReuseAffinityPrefersLocalRegion: with node affinity on, a hand-out
// picks the newest region homed on the caller's node over a newer remote
// one; without it, the pure LIFO pick pays the remote hand-out charge.
func TestReuseAffinityPrefersLocalRegion(t *testing.T) {
	for _, affinity := range []bool{false, true} {
		m, as := numaSetup(2, 2)
		as.SetMmapReuse(1 << 20)
		as.SetReuseNodeAffinity(affinity)
		err := m.Run(func(main *sim.Thread) {
			// A worker on the other CPU parks a region homed on its node...
			var remoteAddr uint64
			w := main.Spawn("parker", func(w *sim.Thread) {
				w.Charge(100)
				w.Yield()
				if w.Node() == main.Node() {
					t.Errorf("worker landed on main's node %d; cannot stage a remote region", w.Node())
					return
				}
				a, err := as.Mmap(w, PageSize, "r")
				if err != nil {
					t.Errorf("Mmap: %v", err)
					return
				}
				as.Write8(w, a, 1)
				remoteAddr = a
			})
			// ...while main parks one homed on its own node, parked FIRST so
			// the remote region is the newer (LIFO-preferred) one.
			localAddr, err := as.Mmap(main, PageSize, "l")
			if err != nil {
				t.Errorf("Mmap: %v", err)
				return
			}
			as.Write8(main, localAddr, 1)
			if ok, perr := as.MunmapReuse(main, localAddr, PageSize); perr != nil || !ok {
				t.Errorf("local park refused: (%v, %v)", ok, perr)
			}
			main.Join(w)
			if ok, perr := as.MunmapReuse(main, remoteAddr, PageSize); perr != nil || !ok {
				t.Errorf("remote park refused: (%v, %v)", ok, perr)
			}

			got, ok := as.MmapFromReuse(main, PageSize)
			if !ok {
				t.Fatal("reuse miss with two parked regions")
			}
			st := as.Stats()
			if affinity {
				if got != localAddr {
					t.Errorf("affinity hand-out = 0x%x, want the local region 0x%x", got, localAddr)
				}
				if st.ReuseRemoteHands != 0 {
					t.Errorf("affinity hand-out counted remote: %d", st.ReuseRemoteHands)
				}
			} else {
				if got != remoteAddr {
					t.Errorf("LIFO hand-out = 0x%x, want the newest region 0x%x", got, remoteAddr)
				}
				if st.ReuseRemoteHands != 1 || st.RemoteAccesses == 0 {
					t.Errorf("remote hand-out not charged: hands=%d acc=%d", st.ReuseRemoteHands, st.RemoteAccesses)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFlatMachineKeepsZeroNUMAStats: on one node nothing is tracked — no
// per-node slice, no remote counters — so the flat cost model is untouched.
func TestFlatMachineKeepsZeroNUMAStats(t *testing.T) {
	m, c := testSetup(2)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		addr, err := as.Mmap(th, 4*PageSize, "anon")
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		as.Write8(th, addr, 1)
		st := as.Stats()
		if st.RemoteAccesses != 0 || st.RemoteFaults != 0 || st.NodeResidentBytes != nil {
			t.Errorf("flat machine grew NUMA stats: %+v", st)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
