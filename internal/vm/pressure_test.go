package vm

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mtmalloc/internal/sim"
)

func TestFaultErrorFormatting(t *testing.T) {
	f := Fault{Space: 3, Addr: 0x7f00, Op: "write8"}
	if got, want := f.Error(), "vm: segmentation fault: space 3 write8 0x7f00"; got != want {
		t.Errorf("Fault.Error() = %q, want %q", got, want)
	}
	o := OOMFault{Space: 2, Addr: 0x5000, Limit: 1 << 20}
	msg := o.Error()
	for _, frag := range []string{"0x5000", "space 2", "1048576", "commit limit"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("OOMFault.Error() = %q, missing %q", msg, frag)
		}
	}
	if !errors.Is(o, ErrNoMem) {
		t.Error("errors.Is(OOMFault, ErrNoMem) = false, want true via Unwrap")
	}
	if errors.Is(f, ErrNoMem) {
		t.Error("a plain segfault must not match ErrNoMem")
	}
}

func TestCommitLimitRefusesGrowth(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMemLimit(4 * PageSize)
		if got := as.MemLimit(); got != 4*PageSize {
			t.Errorf("MemLimit = %d", got)
		}
		if _, err := as.Sbrk(th, 2*PageSize); err != nil {
			t.Errorf("sbrk within limit: %v", err)
		}
		if _, err := as.Sbrk(th, 3*PageSize); err == nil || !errors.Is(err, ErrNoMem) {
			t.Errorf("sbrk past limit: got %v, want ErrNoMem", err)
		}
		if _, err := as.Mmap(th, 4*PageSize, "big"); err == nil || !errors.Is(err, ErrNoMem) {
			t.Errorf("mmap past limit: got %v, want ErrNoMem", err)
		}
		if _, err := as.Mmap(th, 2*PageSize, "fits"); err != nil {
			t.Errorf("mmap exactly to the limit: %v", err)
		}
	})
	st := as.Stats()
	if st.CommitFails != 2 {
		t.Errorf("CommitFails = %d, want 2", st.CommitFails)
	}
	if st.CommittedBytes != 4*PageSize || st.PeakCommitted != 4*PageSize {
		t.Errorf("committed = %d peak = %d, want both %d", st.CommittedBytes, st.PeakCommitted, 4*PageSize)
	}
}

func TestReleasePagesCreditsTheLimit(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMemLimit(4 * PageSize)
		base, err := as.Sbrk(th, 4*PageSize)
		if err != nil {
			t.Fatalf("sbrk: %v", err)
		}
		for i := uint64(0); i < 4; i++ {
			as.Write8(th, base+i*PageSize, 1)
		}
		if _, err := as.Mmap(th, PageSize, "over"); err == nil {
			t.Error("mmap at the limit should fail before the release")
		}
		if n := as.ReleasePages(th, base, 2*PageSize); n != 2*PageSize {
			t.Fatalf("ReleasePages = %d, want %d", n, 2*PageSize)
		}
		// The released pages stopped counting: their credit is spendable.
		if _, err := as.Mmap(th, 2*PageSize, "refill"); err != nil {
			t.Errorf("mmap after release: %v", err)
		}
	})
}

func TestRecommitOverLimitPanicsOOMFault(t *testing.T) {
	m, c := testSetup(1)
	as := New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		as.SetMemLimit(4 * PageSize)
		base, err := as.Sbrk(th, 4*PageSize)
		if err != nil {
			t.Fatalf("sbrk: %v", err)
		}
		for i := uint64(0); i < 4; i++ {
			as.Write8(th, base+i*PageSize, 1)
		}
		as.ReleasePages(th, base, PageSize)
		// Spend the freed credit so the refault below has none left.
		if _, err := as.Mmap(th, PageSize, "steal"); err != nil {
			t.Fatalf("mmap of the freed credit: %v", err)
		}
		_ = as.Read8(th, base) // refault past the limit: panics OOMFault
		t.Error("read of the released page returned instead of faulting")
	})
	if err == nil {
		t.Fatal("machine finished cleanly, want an OOMFault-induced failure")
	}
	if !strings.Contains(err.Error(), "commit limit") {
		t.Errorf("machine error %q does not mention the commit limit", err)
	}
	// The engine wraps the panicked fault, so the sentinel shows through.
	if !errors.Is(err, ErrNoMem) {
		t.Errorf("machine error %q does not wrap ErrNoMem", err)
	}
}

func TestStacksChargedButNeverRefused(t *testing.T) {
	as := runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMemLimit(PageSize) // far below one stack
		if _, err := as.AllocStack(th, "stack-0"); err != nil {
			t.Errorf("AllocStack under an exhausted limit: %v", err)
		}
	})
	if st := as.Stats(); st.CommittedBytes < StackSize {
		t.Errorf("committed = %d, want at least the %d-byte stack", st.CommittedBytes, uint64(StackSize))
	}
}

func TestInjectionProbDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		var fails []bool
		runAS(t, func(th *sim.Thread, as *AddressSpace) {
			as.SetFaultInjection(0.5, seed)
			for i := 0; i < 64; i++ {
				_, err := as.Mmap(th, PageSize, "probe")
				if err != nil && !errors.Is(err, ErrNoMem) {
					t.Errorf("call %d: got %v, want ErrNoMem", i, err)
				}
				fails = append(fails, err != nil)
			}
		})
		return fails
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	c := pattern(8)
	same, sawFail, sawOK := true, false, false
	for i := range a {
		same = same && a[i] == c[i]
		sawFail = sawFail || a[i]
		sawOK = sawOK || !a[i]
	}
	if same {
		t.Error("different seeds produced identical failure patterns")
	}
	if !sawFail || !sawOK {
		t.Errorf("p=0.5 over 64 calls produced failures=%v successes=%v, want both", sawFail, sawOK)
	}
}

func TestParkedReuseCountsAgainstLimit(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(64 * PageSize)
		as.SetMemLimit(4 * PageSize)
		addr, err := as.Mmap(th, 2*PageSize, "a")
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		if ok, perr := as.MunmapReuse(th, addr, 2*PageSize); perr != nil || !ok {
			t.Fatalf("park: ok=%v err=%v", ok, perr)
		}
		// Parked regions keep their commit charge: only 2 more pages fit.
		if st := as.Stats(); st.CommittedBytes != 2*PageSize {
			t.Errorf("committed with a parked region = %d, want %d", st.CommittedBytes, 2*PageSize)
		}
		if _, err := as.Mmap(th, 3*PageSize, "b"); err == nil || !errors.Is(err, ErrNoMem) {
			t.Errorf("mmap over the parked charge: got %v, want ErrNoMem", err)
		}
		// Evicting the parked region refunds its charge.
		if _, _, eerr := as.EvictReuseBefore(th, sim.Time(math.MaxInt64)); eerr != nil {
			t.Fatalf("EvictReuseBefore: %v", eerr)
		}
		if st := as.Stats(); st.CommittedBytes != 0 {
			t.Errorf("committed after eviction = %d, want 0", st.CommittedBytes)
		}
		if _, err := as.Mmap(th, 3*PageSize, "b"); err != nil {
			t.Errorf("mmap after eviction: %v", err)
		}
	})
}

func TestReuseParkingDisabled(t *testing.T) {
	runAS(t, func(th *sim.Thread, as *AddressSpace) {
		as.SetMmapReuse(64 * PageSize)
		addr, err := as.Mmap(th, PageSize, "x")
		if err != nil {
			t.Fatalf("mmap: %v", err)
		}
		as.SetReuseParkingDisabled(true)
		if ok, perr := as.MunmapReuse(th, addr, PageSize); perr != nil || ok {
			t.Errorf("park while disabled: ok=%v err=%v, want a clean refusal", ok, perr)
		}
		as.SetReuseParkingDisabled(false)
		if ok, perr := as.MunmapReuse(th, addr, PageSize); perr != nil || !ok {
			t.Errorf("park after re-enable: ok=%v err=%v", ok, perr)
		}
	})
}
