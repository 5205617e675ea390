package heap

import (
	"errors"
	"strings"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// withLimitedArena builds a main arena, then clamps the commit limit a hair
// above what construction already committed so the next growth fails.
func withLimitedArena(t *testing.T, params Params, headroom uint64, body func(th *sim.Thread, as *vm.AddressSpace, a *Arena)) {
	t.Helper()
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		a, err := NewMain(th, as, &params)
		if err != nil {
			t.Errorf("NewMain: %v", err)
			return
		}
		as.SetMemLimit(as.Stats().CommittedBytes + headroom)
		body(th, as, a)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mallocUntilOOM hammers the arena until growth fails and returns that error.
func mallocUntilOOM(t *testing.T, th *sim.Thread, a *Arena) error {
	t.Helper()
	for i := 0; i < 200; i++ {
		if _, err := a.Malloc(th, 60*1024); err != nil {
			return err
		}
	}
	t.Fatal("allocation kept succeeding under an exhausted commit limit")
	return nil
}

func TestSbrkFailureWrapsErrNoMemory(t *testing.T) {
	params := DefaultParams()
	params.RetrySbrkWithMmap = false
	withLimitedArena(t, params, 2*vm.PageSize, func(th *sim.Thread, as *vm.AddressSpace, a *Arena) {
		err := mallocUntilOOM(t, th, a)
		if !errors.Is(err, ErrNoMemory) {
			t.Errorf("got %v, want ErrNoMemory", err)
		}
		if !errors.Is(err, vm.ErrNoMem) {
			t.Errorf("got %v, want the vm.ErrNoMem cause preserved through the wrap", err)
		}
		if !strings.Contains(err.Error(), "sbrk") {
			t.Errorf("error %q does not name the failed syscall", err)
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check after refused growth: %v", err)
		}
	})
}

func TestMmapFallbackFailureWrapsErrNoMemory(t *testing.T) {
	// With the retry enabled, the commit limit refuses both sbrk and the mmap
	// fallback: the surfaced error must still match both sentinels.
	withLimitedArena(t, DefaultParams(), 2*vm.PageSize, func(th *sim.Thread, as *vm.AddressSpace, a *Arena) {
		err := mallocUntilOOM(t, th, a)
		if !errors.Is(err, ErrNoMemory) || !errors.Is(err, vm.ErrNoMem) {
			t.Errorf("got %v, want both ErrNoMemory and vm.ErrNoMem", err)
		}
		if err := a.Check(); err != nil {
			t.Errorf("Check after refused growth: %v", err)
		}
	})
}

func TestMmapChunkFailureWrapsErrNoMemory(t *testing.T) {
	// Above-threshold requests take the dedicated MmapChunk path; a refused
	// mapping must come back as ErrNoMemory too, not a bare vm error.
	withLimitedArena(t, DefaultParams(), 2*vm.PageSize, func(th *sim.Thread, as *vm.AddressSpace, a *Arena) {
		_, err := a.MmapChunk(th, 4*1024*1024)
		if err == nil {
			t.Fatal("MmapChunk succeeded past the commit limit")
		}
		if !errors.Is(err, ErrNoMemory) || !errors.Is(err, vm.ErrNoMem) {
			t.Errorf("got %v, want both ErrNoMemory and vm.ErrNoMem", err)
		}
	})
}
