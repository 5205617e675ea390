package heap

import (
	"reflect"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// TestStatsAddSumsEveryField is the no-silent-drop regression test: every
// field of Stats, present and future, must ride through Add. Each field
// gets a distinct value on both sides so a skipped field (the old
// hand-written sum dropped two bin counters) or a crossed wire (field
// i added into field j) fails loudly.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is not uint64; Add's contract changed", av.Type().Field(i).Name)
		}
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		want := uint64(i+1) + uint64(1000*(i+1))
		if got := av.Field(i).Uint(); got != want {
			t.Errorf("field %s = %d after Add, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestNewSubOnNodeBindsArena: a node-bound sub-arena records its home node
// and maps its segments there — including extension segments — so every
// page it ever faults is homed on that node no matter who touches it.
func TestNewSubOnNodeBindsArena(t *testing.T) {
	costs := sim.DefaultCosts()
	costs.RemoteAccess = 2.0
	m := sim.NewMachine(sim.Config{CPUs: 2, Nodes: 2, ClockMHz: 100, Costs: costs, Seed: 1})
	c := cache.NewModel(2, cache.DefaultCosts())
	as := vm.New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		params := DefaultParams()
		a, err := NewSubOnNode(th, as, &params, 1, 1)
		if err != nil {
			t.Errorf("NewSubOnNode: %v", err)
			return
		}
		if a.Node != 1 {
			t.Fatalf("arena Node = %d, want 1", a.Node)
		}
		other := 1 - th.Node()
		if other != 1 {
			t.Fatalf("main thread unexpectedly on node %d", th.Node())
		}
		// Allocating from the bound arena faults its pages onto node 1 even
		// though the toucher runs on node 0.
		if _, err := a.Malloc(th, 4096); err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		st := as.Stats()
		if st.RemoteFaults == 0 {
			t.Error("carving a node-1-bound arena from node 0 faulted no pages remotely")
		}
		if st.NodeResidentBytes[1] == 0 {
			t.Error("bound arena resident on the wrong node")
		}
		// NewSub keeps first-touch placement (Node -1).
		ns, err := NewSub(th, as, &params, 2)
		if err != nil {
			t.Errorf("NewSub: %v", err)
			return
		}
		if ns.Node != -1 {
			t.Errorf("NewSub arena Node = %d, want -1 (first-touch)", ns.Node)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
