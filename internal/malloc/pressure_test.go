package malloc

import (
	"errors"
	"fmt"
	"testing"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/telemetry"
	"mtmalloc/internal/vm"
)

// TestPerThreadOverflowsToMainUnderCommitLimit pins the satellite behavior of
// perthread.Malloc: when the private arena cannot grow at all (ErrNoMemory
// from the commit limit, not just ErrArenaFull), the request overflows to the
// main arena's remaining free chunks instead of failing outright. Every
// malloc runs the op frame's emergency cascade on failure, so the test pins
// that no cascade pass had run by the last success (EmergencyScavenges == 0):
// the fallback itself is what satisfied the requests.
func TestPerThreadOverflowsToMainUnderCommitLimit(t *testing.T) {
	m, as := newWorld(2, 7)
	err := m.Run(func(th *sim.Thread) {
		p, err := NewPerThread(th, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("NewPerThread: %v", err)
			return
		}
		// Seed the main arena with free chunks the fallback can live off.
		// Every other chunk stays live so the frees land in bins instead of
		// coalescing into top, where the trim threshold would sbrk them back.
		var seeded []uint64
		for i := 0; i < 8; i++ {
			mem, err := p.Malloc(th, 60*1024)
			if err != nil {
				t.Errorf("seeding main arena: %v", err)
				return
			}
			seeded = append(seeded, mem)
		}
		for i := 0; i < len(seeded); i += 2 {
			if err := p.Free(th, seeded[i]); err != nil {
				t.Errorf("seeding free: %v", err)
				return
			}
		}
		w := th.Spawn("worker", func(wt *sim.Thread) {
			p.AttachThread(wt)
			defer p.DetachThread(wt)
			// First allocation creates the private arena while growth still
			// works; everything after runs with zero commit headroom.
			warm, err := p.Malloc(wt, 16)
			if err != nil {
				t.Errorf("warm-up malloc: %v", err)
				return
			}
			if err := p.Free(wt, warm); err != nil {
				t.Errorf("warm-up free: %v", err)
				return
			}
			as.SetMemLimit(as.Stats().CommittedBytes)
			var got []uint64
			var last error
			var cascades uint64 // emergency passes run by the last success
			for i := 0; i < 300; i++ {
				mem, merr := p.Malloc(wt, 60*1024)
				if merr != nil {
					last = merr
					break
				}
				got = append(got, mem)
				cascades = p.Stats().EmergencyScavenges
			}
			if last == nil {
				t.Error("malloc kept succeeding with zero commit headroom")
			} else if !errors.Is(last, heap.ErrNoMemory) {
				t.Errorf("final failure = %v, want ErrNoMemory", last)
			}
			if len(got) == 0 {
				t.Error("no allocation overflowed to the main arena's free chunks")
			}
			if cascades != 0 {
				t.Errorf("EmergencyScavenges = %d by the last success: the cascade, not the fallback, served the requests", cascades)
			}
			for _, mem := range got {
				if err := p.Free(wt, mem); err != nil {
					t.Errorf("free: %v", err)
					return
				}
			}
		})
		th.Join(w)
		// The worker's overflow successes came from the main arena, so
		// freeing them from the worker crossed arenas — the design's
		// documented trade-off.
		if st := p.Stats(); st.CrossArenaFrees == 0 {
			t.Error("CrossArenaFrees = 0: the private arena never overflowed to main")
		}
		for i := 1; i < len(seeded); i += 2 {
			if err := p.Free(th, seeded[i]); err != nil {
				t.Errorf("seed drain: %v", err)
				return
			}
		}
		if err := p.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPtmallocSurvivesInjectedMmapFailures drives ptmalloc's arena retry
// machinery (the ErrArenaFull sweep and subordinate-arena creation) against
// deterministic growth-failure injection: each mmap/sbrk growth call fails
// with probability one half, and the allocator must keep serving what it
// can, fail the rest with a clean out-of-memory error, and stay structurally
// consistent.
func TestPtmallocSurvivesInjectedMmapFailures(t *testing.T) {
	m, as := newWorld(2, 7)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindPTMalloc, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		as.SetFaultInjection(0.5, 7)
		var workers []*sim.Thread
		for i := 0; i < 2; i++ {
			workers = append(workers, th.Spawn(fmt.Sprintf("churn-%d", i), func(wt *sim.Thread) {
				al.AttachThread(wt)
				defer al.DetachThread(wt)
				var held []uint64
				ok := 0
				for j := 0; j < 200; j++ {
					mem, merr := al.Malloc(wt, 60*1024)
					if merr != nil {
						if !IsNoMem(merr) {
							t.Errorf("op %d: non-OOM failure %v", j, merr)
							return
						}
						continue // refused growth: the op is skipped, not fatal
					}
					ok++
					held = append(held, mem)
					if len(held) > 8 {
						if err := al.Free(wt, held[0]); err != nil {
							t.Errorf("free: %v", err)
							return
						}
						held = held[1:]
					}
				}
				if ok == 0 {
					t.Error("every allocation failed despite half the growth calls succeeding")
				}
				for _, mem := range held {
					if err := al.Free(wt, mem); err != nil {
						t.Errorf("drain free: %v", err)
						return
					}
				}
			}))
		}
		for _, w := range workers {
			th.Join(w)
		}
		if st := as.Stats(); st.InjectedFaults == 0 {
			t.Error("InjectedFaults = 0: the workload never exercised a growth call")
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after injected failures: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmergencyCascadeUnderCommitLimit stages the tentpole scenario end to
// end on the thread-cache design: magazines hold every freed byte, the commit
// limit is then clamped to the current footprint, and a second round in a
// different size class can only be served if the emergency cascade flushes
// the caches back to the arenas.
func TestEmergencyCascadeUnderCommitLimit(t *testing.T) {
	m, as := newWorld(1, 7)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindThreadCache, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		al.AttachThread(th)
		defer al.DetachThread(th)
		var round1 []uint64
		for i := 0; i < 400; i++ {
			mem, merr := al.Malloc(th, 256)
			if merr != nil {
				t.Errorf("round 1 malloc: %v", merr)
				return
			}
			round1 = append(round1, mem)
		}
		for _, mem := range round1 {
			if err := al.Free(th, mem); err != nil {
				t.Errorf("round 1 free: %v", err)
				return
			}
		}
		// Every freed chunk now sits in a magazine; clamp the limit just
		// above the current footprint so fresh growth is refused. Round 2
		// asks for fewer, bigger objects whose total stays under what the
		// flush can liberate: the cascade must absorb all of it.
		as.SetMemLimit(as.Stats().CommittedBytes + 4*vm.PageSize)
		var round2 []uint64
		for i := 0; i < 150; i++ {
			mem, merr := al.Malloc(th, 512)
			if merr != nil {
				if IsNoMem(merr) {
					continue // the cascade gave up on this one; tolerated
				}
				t.Errorf("round 2 malloc: %v", merr)
				return
			}
			round2 = append(round2, mem)
		}
		st := al.Stats()
		if st.EmergencyScavenges == 0 {
			t.Error("EmergencyScavenges = 0: the cascade never ran")
		}
		if st.OOMRetries == 0 {
			t.Error("OOMRetries = 0: no refused allocation was retried")
		}
		if st.OOMFails != 0 {
			t.Errorf("OOMFails = %d: the cascade failed to absorb the pressure", st.OOMFails)
		}
		if st.PressureLevel == 0 {
			t.Error("PressureLevel = 0 immediately after the cascade ran")
		}
		if len(round2) < 150 {
			t.Errorf("only %d/150 round-2 allocations succeeded off the flushed magazines", len(round2))
		}
		for _, mem := range round2 {
			if err := al.Free(th, mem); err != nil {
				t.Errorf("round 2 free: %v", err)
				return
			}
		}
		// Pressure clears once the window passes without another incident.
		th.Charge(pressureWindow + 1)
		probe, merr := al.Malloc(th, 64)
		if merr != nil {
			t.Errorf("post-window malloc: %v", merr)
			return
		}
		if err := al.Free(th, probe); err != nil {
			t.Errorf("post-window free: %v", err)
			return
		}
		if st := al.Stats(); st.PressureLevel != 0 {
			t.Errorf("PressureLevel = %d after the pressure window elapsed, want 0", st.PressureLevel)
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
		if st := al.Stats(); st.Heap.Mallocs != st.Heap.Frees {
			t.Errorf("leak under pressure: %d mallocs vs %d frees", st.Heap.Mallocs, st.Heap.Frees)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeferredErrorSurfacesInCheck pins the recordErr contract: a failure on
// a path with no caller to return to (scavenger flushes, detach releases)
// must turn the next structural check red instead of vanishing.
func TestDeferredErrorSurfacesInCheck(t *testing.T) {
	m, as := newWorld(1, 7)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindThreadCache, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		if err := al.Check(); err != nil {
			t.Errorf("fresh allocator Check: %v", err)
		}
		tc, ok := al.(*ThreadCache)
		if !ok {
			t.Fatalf("New returned %T, want the design itself", al)
		}
		planted := errors.New("flush failed mid-scavenge")
		tc.recordErr(planted)
		cerr := al.Check()
		if cerr == nil {
			t.Fatal("Check passed with a deferred error recorded")
		}
		if !errors.Is(cerr, planted) {
			t.Errorf("Check error %v does not wrap the recorded failure", cerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEmergencyTierTelemetryAllKinds pins the emergency tier's attribution
// for every kind: under a commit limit with no headroom left, a malloc that
// only the cascade can serve is recorded exactly once — in TierEmergency,
// for the whole call, cascade passes and retry included — per-tier malloc
// cycles still sum to the malloc total, and the cascade counters rise.
func TestEmergencyTierTelemetryAllKinds(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, as := newWorld(1, 7)
			err := m.Run(func(th *sim.Thread) {
				al, err := New(th, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				rec := telemetry.NewRecorder(telemetry.Config{ClockMHz: 100})
				if !AttachTelemetry(al, rec) {
					t.Fatal("AttachTelemetry refused a built-in kind")
				}
				// Every other chunk of a touched, uncacheable run freed back:
				// the holes sit binned between live neighbours, resident and
				// too small for the request below, until the cascade's binned
				// release hands their interiors back.
				var held []uint64
				for i := 0; i < 16; i++ {
					mem, merr := al.Malloc(th, 50*1024)
					if merr != nil {
						t.Errorf("warm-up malloc: %v", merr)
						return
					}
					for off := uint64(0); off < 50*1024; off += vm.PageSize {
						as.Write8(th, mem+off, 1) // make every page resident
					}
					if i%2 == 0 {
						defer func() {
							if err := al.Free(th, mem); err != nil {
								t.Errorf("warm-up free: %v", err)
							}
						}()
						continue
					}
					held = append(held, mem)
				}
				for _, mem := range held {
					if err := al.Free(th, mem); err != nil {
						t.Errorf("warm-up free: %v", err)
						return
					}
				}
				as.SetMemLimit(as.Stats().CommittedBytes)
				before, rep0 := al.Stats(), rec.Report()
				start := th.Now()
				mem, merr := al.Malloc(th, 120*1024)
				took := uint64(th.Now() - start)
				if merr != nil {
					t.Errorf("malloc the cascade should rescue: %v", merr)
					return
				}
				st, rep := al.Stats(), rec.Report()
				if st.EmergencyScavenges <= before.EmergencyScavenges || st.OOMRetries <= before.OOMRetries {
					t.Errorf("cascade counters did not rise: scavenges %d -> %d, retries %d -> %d",
						before.EmergencyScavenges, st.EmergencyScavenges, before.OOMRetries, st.OOMRetries)
				}
				if st.OOMFails != 0 {
					t.Errorf("OOMFails = %d for a rescued malloc", st.OOMFails)
				}
				if got := rep.MallocOps - rep0.MallocOps; got != 1 {
					t.Errorf("rescued malloc recorded %d times, want once", got)
				}
				if got := rec.TierCycles(telemetry.OpMalloc, telemetry.TierEmergency); got != took {
					t.Errorf("emergency tier holds %d cycles, want the whole call's %d", got, took)
				}
				sum := uint64(0)
				for _, ts := range rep.Tiers {
					if ts.Op == "malloc" {
						sum += ts.Cycles
						if ts.Tier == telemetry.TierEmergency.String() && ts.Ops != 1 {
							t.Errorf("emergency tier holds %d mallocs, want 1", ts.Ops)
						}
					}
				}
				if sum != rep.TotalMallocCycles {
					t.Errorf("malloc tier cycles sum to %d, total is %d", sum, rep.TotalMallocCycles)
				}
				if err := al.Free(th, mem); err != nil {
					t.Errorf("free: %v", err)
				}
				if err := al.Check(); err != nil {
					t.Errorf("Check: %v", err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
