package sim

import "testing"

// TestNodeTopologyMapping pins the CPU-to-node block mapping and the config
// defaults: no Nodes means one node, and a machine can never have more
// nodes than CPUs.
func TestNodeTopologyMapping(t *testing.T) {
	m := NewMachine(Config{CPUs: 8, Nodes: 4, Seed: 1})
	if m.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", m.Nodes())
	}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for cpu, w := range want {
		if got := m.NodeOfCPU(cpu); got != w {
			t.Errorf("NodeOfCPU(%d) = %d, want %d", cpu, got, w)
		}
	}
	if got := m.NodeOfCPU(-1); got != 0 {
		t.Errorf("NodeOfCPU(-1) = %d, want 0 (undispatched thread)", got)
	}

	flat := NewMachine(Config{CPUs: 4, Seed: 1})
	if flat.Nodes() != 1 {
		t.Errorf("default Nodes = %d, want 1", flat.Nodes())
	}
	for cpu := 0; cpu < 4; cpu++ {
		if flat.NodeOfCPU(cpu) != 0 {
			t.Errorf("flat NodeOfCPU(%d) != 0", cpu)
		}
	}

	over := NewMachine(Config{CPUs: 2, Nodes: 8, Seed: 1})
	if over.Nodes() != 2 {
		t.Errorf("Nodes clamped to %d, want CPUs (2)", over.Nodes())
	}

	// Non-divisible split: 6 CPUs over 4 nodes blocks as ceil(6/4)=2 per
	// node, with the tail clamped onto the last node.
	odd := NewMachine(Config{CPUs: 6, Nodes: 4, Seed: 1})
	wantOdd := []int{0, 0, 1, 1, 2, 2}
	for cpu, w := range wantOdd {
		if got := odd.NodeOfCPU(cpu); got != w {
			t.Errorf("odd NodeOfCPU(%d) = %d, want %d", cpu, got, w)
		}
	}

	// The precomputed table agrees with the block formula on every shape:
	// node count clamped to [1, CPUs], blocks of ceil(CPUs/Nodes), a node
	// past the last clamped onto it.
	for cpus := 1; cpus <= 64; cpus++ {
		for nodes := 1; nodes <= 8; nodes++ {
			m := NewMachine(Config{CPUs: cpus, Nodes: nodes, Seed: 1})
			eff := min(nodes, cpus)
			if m.Nodes() != eff {
				t.Fatalf("CPUs=%d Nodes=%d: Nodes() = %d, want %d", cpus, nodes, m.Nodes(), eff)
			}
			per := (cpus + eff - 1) / eff
			for cpu := 0; cpu < cpus; cpu++ {
				want := cpu / per
				if want >= eff {
					want = eff - 1
				}
				if got := m.NodeOfCPU(cpu); got != want {
					t.Fatalf("CPUs=%d Nodes=%d: NodeOfCPU(%d) = %d, want %d", cpus, nodes, cpu, got, want)
				}
			}
			if got := m.NodeOfCPU(-1); got != 0 {
				t.Fatalf("CPUs=%d Nodes=%d: NodeOfCPU(-1) = %d, want 0", cpus, nodes, got)
			}
		}
	}
}

// TestRemoteMultiplierNormalization: zero and sub-1 values mean "flat".
func TestRemoteMultiplierNormalization(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want float64
	}{{0, 1}, {0.5, 1}, {1, 1}, {1.6, 1.6}} {
		c := DefaultCosts()
		c.RemoteAccess = tc.in
		m := NewMachine(Config{CPUs: 2, Nodes: 2, Costs: c, Seed: 1})
		if got := m.RemoteMultiplier(); got != tc.want {
			t.Errorf("RemoteMultiplier(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestThreadNodeFollowsCPU: a thread's node is derived from the CPU it last
// ran on, and two busy threads on a 2-CPU 2-node machine end up on
// different nodes.
func TestThreadNodeFollowsCPU(t *testing.T) {
	m := NewMachine(Config{CPUs: 2, Nodes: 2, Seed: 1})
	nodes := make(map[string]int)
	err := m.Run(func(main *Thread) {
		if main.Node() != m.NodeOfCPU(main.CPU()) {
			t.Errorf("main.Node() = %d, want NodeOfCPU(%d) = %d", main.Node(), main.CPU(), m.NodeOfCPU(main.CPU()))
		}
		body := func(w *Thread) {
			// Enough alternating work that both workers are alive at once
			// and must occupy distinct CPUs.
			for i := 0; i < 10; i++ {
				w.Charge(100000)
				w.Yield()
			}
			nodes[w.Name] = w.Node()
			if w.Node() != m.NodeOfCPU(w.CPU()) {
				t.Errorf("%s: Node() = %d, CPU %d maps to %d", w.Name, w.Node(), w.CPU(), m.NodeOfCPU(w.CPU()))
			}
		}
		a := main.Spawn("a", body)
		b := main.Spawn("b", body)
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if nodes["a"] == nodes["b"] {
		t.Errorf("both workers on node %d; expected the scheduler to spread them across nodes", nodes["a"])
	}
}
