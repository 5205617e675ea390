package malloc

import (
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/sim"
)

// lineAlignedParams returns the default heap params aligned to the cache
// line, which turns line-aware placement on.
func lineAlignedParams() heap.Params {
	p := heap.DefaultParams()
	p.Align = cache.LineSize
	return p
}

// TestLineAwareQuantization: on a line-aligned heap every design must hand
// out line-aligned chunks whose classes are line multiples, and must account
// the rounding overhead in LineQuantBytes.
func TestLineAwareQuantization(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, as := newWorld(2, 7)
			line := uint64(cache.LineSize)
			err := m.Run(func(th *sim.Thread) {
				al, err := New(th, kind, as, lineAlignedParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				var ps []uint64
				for _, size := range []uint32{1, 16, 24, 33, 56, 100, 200} {
					p, err := al.Malloc(th, size)
					if err != nil {
						t.Errorf("Malloc(%d): %v", size, err)
						return
					}
					if p%line != 0 {
						t.Errorf("Malloc(%d) = 0x%x, not aligned to the %dB line", size, p, line)
					}
					ps = append(ps, p)
				}
				if got := al.Stats().LineQuantBytes; got == 0 {
					t.Errorf("LineQuantBytes = 0 after sub-line requests")
				}
				for _, p := range ps {
					if err := al.Free(th, p); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
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

// TestLineQuantBytesOffByDefault: at the default 8-byte alignment the
// placement counters stay zero and placement is the blind one.
func TestLineQuantBytesOffByDefault(t *testing.T) {
	m, as := newWorld(2, 7)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindThreadCache, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		for i := 0; i < 50; i++ {
			if _, err := al.Malloc(th, 16); err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
		}
		s := al.Stats()
		if s.LineQuantBytes != 0 || s.LineColorBytes != 0 || s.LineColorSpans != 0 {
			t.Errorf("blind run charged placement counters: quant %d color %d spans %d",
				s.LineQuantBytes, s.LineColorBytes, s.LineColorSpans)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// churnMagazines drives the cross-thread churn that interleaves two threads'
// magazines: the main thread allocates a run of small objects back to back
// (adjacent chunks), then the two threads free alternating halves, parking
// even chunks in one magazine and odd chunks in the other. Neither thread is
// detached afterwards — detaching flushes the magazine, and the point is to
// probe the parked chunks while they are live.
func churnMagazines(t *testing.T, th *sim.Thread, al Allocator) {
	t.Helper()
	var ps []uint64
	for i := 0; i < 48; i++ {
		p, err := al.Malloc(th, 16)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		ps = append(ps, p)
	}
	al.AttachThread(th)
	other := th.Spawn("churn-other", func(o *sim.Thread) {
		al.AttachThread(o)
		for i := 1; i < len(ps); i += 2 {
			if err := al.Free(o, ps[i]); err != nil {
				t.Errorf("other Free: %v", err)
				return
			}
		}
	})
	for i := 0; i < len(ps); i += 2 {
		if err := al.Free(th, ps[i]); err != nil {
			t.Errorf("Free: %v", err)
			return
		}
	}
	th.Join(other)
}

// TestSharedMagazineLinesChurn is the coloring-invariant ablation: the same
// cross-thread churn must interleave the two magazines onto shared lines
// under blind carving and must not under line-aware carving — where Check()
// additionally enforces the invariant.
func TestSharedMagazineLinesChurn(t *testing.T) {
	for _, kind := range []Kind{KindThreadCache, KindLockFree} {
		kind := kind
		t.Run(string(kind)+"/blind", func(t *testing.T) {
			m, as := newWorld(2, 11)
			err := m.Run(func(th *sim.Thread) {
				al, err := New(th, kind, as, heap.DefaultParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				churnMagazines(t, th, al)
				sm, ok := al.(interface{ SharedMagazineLines() int })
				if !ok {
					t.Errorf("%s does not expose SharedMagazineLines", kind)
					return
				}
				if got := sm.SharedMagazineLines(); got == 0 {
					t.Errorf("blind churn produced no shared magazine lines; want > 0")
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run(string(kind)+"/line-aware", func(t *testing.T) {
			m, as := newWorld(2, 11)
			err := m.Run(func(th *sim.Thread) {
				al, err := New(th, kind, as, lineAlignedParams(), DefaultCostParams())
				if err != nil {
					t.Errorf("New: %v", err)
					return
				}
				churnMagazines(t, th, al)
				sm := al.(interface{ SharedMagazineLines() int })
				if got := sm.SharedMagazineLines(); got != 0 {
					t.Errorf("line-aware churn left %d shared magazine lines; want 0", got)
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

// TestSpanColoringGauges: the lock-free backend must rotate buddy span
// origins under a line-aligned heap and track the sacrificed bytes as a gauge.
func TestSpanColoringGauges(t *testing.T) {
	m, as := newWorld(2, 13)
	line := uint64(cache.LineSize)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindLockFree, as, lineAlignedParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		// Enough live objects of one class to carve several spans; the first
		// span from a thread may get color 0, later ones rotate to nonzero
		// offsets.
		var ps []uint64
		for i := 0; i < 600; i++ {
			p, err := al.Malloc(th, 24)
			if err != nil {
				t.Errorf("Malloc: %v", err)
				return
			}
			if p%line != 0 {
				t.Errorf("colored span handed out unaligned chunk 0x%x", p)
				return
			}
			ps = append(ps, p)
		}
		s := al.Stats()
		if s.LineColorSpans == 0 || s.LineColorBytes == 0 {
			t.Errorf("no colored spans while %d chunks live: spans %d bytes %d",
				len(ps), s.LineColorSpans, s.LineColorBytes)
		}
		if s.LineColorBytes%line != 0 {
			t.Errorf("LineColorBytes %d not a line multiple", s.LineColorBytes)
		}
		for _, p := range ps {
			if err := al.Free(th, p); err != nil {
				t.Errorf("Free: %v", err)
				return
			}
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFillClassMirrors: under an allocator's traffic the address space's
// fill-class counters classify every charged access and count a cross-CPU
// dirty handoff as a cache-to-cache transfer.
func TestFillClassMirrors(t *testing.T) {
	m, as := newWorld(2, 17)
	err := m.Run(func(th *sim.Thread) {
		al, err := New(th, KindThreadCache, as, heap.DefaultParams(), DefaultCostParams())
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		p, err := al.Malloc(th, 64)
		if err != nil {
			t.Errorf("Malloc: %v", err)
			return
		}
		as.Write8(th, p, 1)
		other := th.Spawn("fill-other", func(o *sim.Thread) {
			as.Write8(o, p, 2) // dirty in th's cache: a C2C fill
		})
		th.Join(other)
		s := as.Stats()
		if s.FillC2C == 0 || s.FillC2CCycles == 0 {
			t.Errorf("cross-CPU write of a dirty line not counted: C2C %d cycles %d", s.FillC2C, s.FillC2CCycles)
		}
		if s.FillLocal == 0 || s.FillRemote == 0 {
			t.Errorf("fill classes missing: local %d remote %d", s.FillLocal, s.FillRemote)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
