package scavenge

import (
	"testing"

	"mtmalloc/internal/sim"
)

// fakeSource records the sweeps it receives and releases a fixed amount.
type fakeSource struct {
	releases uint64
	calls    int
	cutoffs  []sim.Time
	decays   []int
}

func (f *fakeSource) Scavenge(t *sim.Thread, cutoff sim.Time, decay int) uint64 {
	f.calls++
	f.cutoffs = append(f.cutoffs, cutoff)
	f.decays = append(f.decays, decay)
	return f.releases
}

func TestTickFiresOnEpochBoundary(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	err := m.Run(func(th *sim.Thread) {
		src := &fakeSource{releases: 100}
		s := New(Policy{Interval: 1000, DecayPercent: 50})
		s.Register(src)
		if s.Tick(th) {
			t.Error("first Tick ran a pass instead of arming the schedule")
		}
		if s.NextAt() != th.Now()+1000 {
			t.Fatalf("NextAt = %d after arming, want %d", s.NextAt(), th.Now()+1000)
		}
		th.Charge(999)
		if s.Tick(th) {
			t.Error("Tick fired one cycle early")
		}
		th.Charge(1)
		before := th.Now()
		if !s.Tick(th) {
			t.Fatal("Tick did not fire at the epoch boundary")
		}
		if th.Now() != before+passWork {
			t.Errorf("pass charged %d cycles, want the %d-cycle pass work", th.Now()-before, passWork)
		}
		if src.calls != 1 || src.decays[0] != 50 {
			t.Fatalf("source swept %d times (decays %v), want once at 50%%", src.calls, src.decays)
		}
		if got := src.cutoffs[0]; got != before-1000 {
			t.Errorf("cutoff = %d, want one interval before the pass (%d)", got, before-1000)
		}
		st := s.Stats()
		if st.Epochs != 1 || st.BytesReleased != 100 {
			t.Errorf("stats = %+v, want 1 epoch / 100 bytes", st)
		}
		// The next pass is scheduled one interval after this one completed.
		if s.NextAt() != th.Now()+1000 {
			t.Errorf("NextAt = %d, want %d", s.NextAt(), th.Now()+1000)
		}
		if s.Tick(th) {
			t.Error("Tick re-fired inside the same epoch")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSourcesSweptInRegistrationOrder(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	err := m.Run(func(th *sim.Thread) {
		var order []string
		mk := func(name string) Source {
			return sourceFunc{func() { order = append(order, name) }}
		}
		s := New(Policy{Interval: 10, DecayPercent: 100})
		s.Register(mk("magazines"))
		s.Register(mk("depot"))
		s.Register(mk("trim"))
		s.Force(th)
		want := []string{"magazines", "depot", "trim"}
		for i, w := range want {
			if order[i] != w {
				t.Fatalf("sweep order %v, want %v", order, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

type sourceFunc struct{ fn func() }

func (s sourceFunc) Scavenge(t *sim.Thread, cutoff sim.Time, decay int) uint64 {
	s.fn()
	return 0
}

func TestDecayPercentClamped(t *testing.T) {
	if got := New(Policy{Interval: 10, DecayPercent: 0}).Policy().DecayPercent; got != 1 {
		t.Errorf("DecayPercent 0 clamped to %d, want 1", got)
	}
	if got := New(Policy{Interval: 10, DecayPercent: 500}).Policy().DecayPercent; got != 100 {
		t.Errorf("DecayPercent 500 clamped to %d, want 100", got)
	}
}

// TestBackgroundRunsPassesWhileThreadsIdle: the background runner must keep
// epochs firing while no allocator thread is ticking, and must exit once
// stopped.
func TestBackgroundRunsPassesWhileThreadsIdle(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	err := m.Run(func(th *sim.Thread) {
		src := &fakeSource{releases: 1}
		s := New(Policy{Interval: 1000, DecayPercent: 50})
		s.Register(src)
		stop := false
		bg := th.Spawn("scavenger", func(w *sim.Thread) {
			s.Background(w, func() bool { return stop })
		})
		// The main thread sleeps far past several epochs without ticking.
		th.Sleep(10500)
		stop = true
		th.Join(bg)
		if src.calls < 5 {
			t.Errorf("background ran %d passes over ~10 epochs of idle, want >= 5", src.calls)
		}
		if s.Stats().Epochs != uint64(src.calls) {
			t.Errorf("epochs %d != source sweeps %d", s.Stats().Epochs, src.calls)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleDriverPreventsDoubleDecay: with a driver elected, a second
// thread ticking on the same schedule never runs a pass — each epoch decays
// exactly once — and handing the schedule back (SetDriver(nil)) lets any
// thread drive again.
func TestSingleDriverPreventsDoubleDecay(t *testing.T) {
	m := sim.NewMachine(sim.Config{CPUs: 2, ClockMHz: 100, Seed: 1})
	err := m.Run(func(th *sim.Thread) {
		src := &fakeSource{releases: 1}
		s := New(Policy{Interval: 1000, DecayPercent: 50})
		s.Register(src)
		driver := th.Spawn("driver", func(w *sim.Thread) {
			for i := 0; i < 10; i++ {
				w.Sleep(1000)
				s.Tick(w)
			}
		})
		s.SetDriver(driver)
		if s.Driver() != driver {
			t.Error("Driver() does not report the elected thread")
		}
		// The classic double-decay setup: main ticks every interval too.
		for i := 0; i < 10; i++ {
			th.Sleep(1000)
			if s.Tick(th) {
				t.Error("non-driver Tick ran a pass")
			}
		}
		th.Join(driver)
		epochs := s.Stats().Epochs
		if epochs < 8 || epochs > 11 {
			t.Errorf("epochs = %d over ~10 intervals with two tickers, want one pass per interval", epochs)
		}
		if src.calls != int(epochs) {
			t.Errorf("source swept %d times over %d epochs, want equal", src.calls, epochs)
		}
		s.SetDriver(nil)
		th.Sleep(1000)
		if !s.Tick(th) {
			t.Error("Tick refused after the schedule was handed back")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
