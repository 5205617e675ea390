package sim

import "testing"

func TestCASUncontended(t *testing.T) {
	m := NewMachine(testConfig(1))
	p := m.NewCASPoint("head")
	err := m.Run(func(th *Thread) {
		before := th.Now()
		for i := 0; i < 100; i++ {
			th.CAS(p)
		}
		if got, want := th.Now()-before, 100*m.Config().Costs.MutexAtomic; got != want {
			t.Errorf("uncontended CAS cycles = %d, want %d", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Updates != 100 || p.Attempts != 100 || p.Fails != 0 || p.ContendedOps != 0 {
		t.Errorf("stats = %+v, want 100 clean updates", p.PointStats())
	}
}

func TestCASContendedChargesRetries(t *testing.T) {
	m := NewMachine(testConfig(2))
	p := m.NewCASPoint("head")
	err := m.Run(func(main *Thread) {
		a := main.Spawn("a", func(w *Thread) {
			for i := 0; i < 2000; i++ {
				w.CAS(p)
				w.Charge(20)
				w.MaybeYield()
			}
		})
		b := main.Spawn("b", func(w *Thread) {
			for i := 0; i < 2000; i++ {
				w.CAS(p)
				w.Charge(20)
				w.MaybeYield()
			}
		})
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fails == 0 {
		t.Errorf("two threads hammering one CAS word produced no retries: %+v", p.PointStats())
	}
	if p.Attempts != p.Updates+p.Fails {
		t.Errorf("Attempts = %d, want Updates+Fails = %d", p.Attempts, p.Updates+p.Fails)
	}
	if p.RetryCycles == 0 {
		t.Errorf("contended CAS charged no retry cycles")
	}
	st := p.PointStats()
	if st.CASAttempts != p.Attempts || st.CASFails != p.Fails || st.Acquisitions != p.Updates {
		t.Errorf("PointStats mismatch: %+v vs point %+v", st, p)
	}
}

func TestCASRetriesCapped(t *testing.T) {
	cfg := testConfig(8)
	cfg.Costs = DefaultCosts()
	// Cheap spawns so the short workers actually overlap in time.
	cfg.Costs.ThreadSpawn = 100
	cfg.Costs.SpawnJitter = 10
	m := NewMachine(cfg)
	m.casMaxRetries = 2
	p := m.NewCASPoint("head")
	err := m.Run(func(main *Thread) {
		var kids []*Thread
		for i := 0; i < 8; i++ {
			kids = append(kids, main.Spawn("w", func(w *Thread) {
				for j := 0; j < 1000; j++ {
					w.CAS(p)
					w.MaybeYield()
				}
			}))
		}
		for _, k := range kids {
			main.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// With the cap at 2, no single op may charge more than 2 fails; ops total
	// 8000, so fails are bounded by 16000.
	if p.Fails > 16000 {
		t.Errorf("Fails = %d, exceeds per-op retry cap", p.Fails)
	}
	if p.Fails == 0 {
		t.Errorf("8 threads on one word produced no retries")
	}
}

func TestAtomicAddNeverFails(t *testing.T) {
	cfg := testConfig(2)
	cfg.Costs = DefaultCosts()
	cfg.Costs.ThreadSpawn = 100
	cfg.Costs.SpawnJitter = 10
	m := NewMachine(cfg)
	p := m.NewCASPoint("cursor")
	err := m.Run(func(main *Thread) {
		a := main.Spawn("a", func(w *Thread) {
			for i := 0; i < 2000; i++ {
				w.AtomicAdd(p)
				w.MaybeYield()
			}
		})
		b := main.Spawn("b", func(w *Thread) {
			for i := 0; i < 2000; i++ {
				w.AtomicAdd(p)
				w.MaybeYield()
			}
		})
		main.Join(a)
		main.Join(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Fails != 0 {
		t.Errorf("fetch-add recorded %d failures; it cannot fail", p.Fails)
	}
	if p.ContendedOps == 0 {
		t.Errorf("two threads on one cursor never paid a line transfer")
	}
	if p.Attempts != p.Updates {
		t.Errorf("Attempts = %d, want Updates = %d for fetch-add", p.Attempts, p.Updates)
	}
}

func TestPointsRegistry(t *testing.T) {
	m := NewMachine(testConfig(1))
	mu := m.NewMutex("lock")
	p := m.NewCASPoint("head")
	pts := m.Points()
	if len(pts) != 2 || pts[0] != ContentionPoint(mu) || pts[1] != ContentionPoint(p) {
		t.Fatalf("Points() = %v, want [lock head] in creation order", pts)
	}
	err := m.Run(func(th *Thread) {
		th.Lock(mu)
		th.Charge(10)
		th.Unlock(mu)
		ok := th.TryLock(mu)
		if ok {
			th.Unlock(mu)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := mu.PointStats()
	if st.Acquisitions != mu.Acquisitions || st.TryAcquires != mu.TryAcquires ||
		st.TryFailures != mu.TryFailures || st.WaitCycles != mu.WaitCycles {
		t.Errorf("mutex PointStats %+v does not mirror fields", st)
	}
	if st.CASAttempts != 0 || st.CASFails != 0 {
		t.Errorf("mutex reported CAS counters: %+v", st)
	}
}

func TestCASDeterminism(t *testing.T) {
	run := func() (uint64, uint64, Time) {
		m := NewMachine(testConfig(4))
		p := m.NewCASPoint("head")
		var end Time
		err := m.Run(func(main *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				kids = append(kids, main.Spawn("w", func(w *Thread) {
					for j := 0; j < 3000; j++ {
						w.CAS(p)
						w.Charge(Time(10 + w.RNG().Intn(5)))
						w.MaybeYield()
					}
				}))
			}
			for _, k := range kids {
				main.Join(k)
			}
			end = main.Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		return p.Attempts, p.Fails, end
	}
	a1, f1, e1 := run()
	a2, f2, e2 := run()
	if a1 != a2 || f1 != f2 || e1 != e2 {
		t.Errorf("CAS runs diverged: (%d,%d,%d) vs (%d,%d,%d)", a1, f1, e1, a2, f2, e2)
	}
}
