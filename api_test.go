package mtmalloc

import (
	"strings"
	"testing"
)

func TestFacadeWorldRoundtrip(t *testing.T) {
	w := NewWorld(QuadXeon500(), 1)
	err := w.Run(func(main *Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			t.Errorf("AddInstance: %v", err)
			return
		}
		p, err := inst.Alloc.Malloc(main, 512)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		if err := inst.Alloc.Free(main, p); err != nil {
			t.Errorf("Free: %v", err)
		}
		if err := inst.Alloc.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProfiles(t *testing.T) {
	// The paper's four hosts, the three-machine numa-500 family (D4), and
	// the two 64-CPU scaling hosts (D5).
	if len(Profiles()) != 9 {
		t.Fatalf("Profiles() = %d entries, want 9", len(Profiles()))
	}
	for _, p := range []Profile{DualPPro200(), QuadXeon500(), SunUltra2x400(), K6_400()} {
		if p.CPUs < 1 || p.ClockMHz <= 0 {
			t.Errorf("bad profile %q", p.Name)
		}
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	if len(Experiments()) < 16 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
	var ids []string
	for _, ab := range Ablations() {
		ids = append(ids, ab.ID)
	}
	if got, want := strings.Join(ids, " "), "A1 A4 A5 A6"; got != want {
		t.Fatalf("ablations = %s, want %s", got, want)
	}
}

func TestFacadeAllocatorKinds(t *testing.T) {
	for _, kind := range []AllocatorKind{Serial, PTMalloc, PerThread, ThreadCache, LockFree} {
		w := NewWorld(QuadXeon500(), 2, WithAllocator(kind))
		err := w.Run(func(main *Thread) {
			inst, err := w.AddInstance(main)
			if err != nil {
				t.Errorf("%s: %v", kind, err)
				return
			}
			if got := inst.Alloc.Name(); got != string(kind) {
				t.Errorf("allocator name %q, want %q", got, kind)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFacadePredictor(t *testing.T) {
	got := PredictMinorFaults(7, 80)
	want := 14 + 1.1*560 + 127.6*7
	if got < want-0.001 || got > want+0.001 {
		t.Fatalf("PredictMinorFaults = %v, want %v", got, want)
	}
}

func TestFacadeBench1Smoke(t *testing.T) {
	res, err := RunBench1(B1Config{Profile: DualPPro200(), Threads: 2, Size: 512, Pairs: 5000, Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.All.Mean <= 0 {
		t.Fatal("non-positive elapsed")
	}
}
