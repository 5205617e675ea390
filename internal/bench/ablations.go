package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
)

// Ablations exercise the allocator's design decisions one at a time. Each
// returns a Table like the paper experiments do.

// AblationArenaPolicy (A1/A2) compares the three allocator designs under
// the benchmark 1 loop at the machine's CPU count.
func AblationArenaPolicy(o Options) (*Table, error) {
	prof := QuadXeon500()
	t := &Table{ID: "A1", Title: "allocator design vs 4-thread elapsed, quad Xeon, 8192B",
		Columns: []string{"allocator", "mean(s)", "stddev", "vs ptmalloc"}}
	pairs := o.pairs()
	base := 0.0
	for _, kind := range []malloc.Kind{malloc.KindPTMalloc, malloc.KindSerial, malloc.KindPerThread} {
		prof.Allocator = kind
		r, err := RunBench1(B1Config{Profile: prof, Threads: 4, Size: 8192, Pairs: pairs,
			Runs: 3, Seed: o.seed()})
		if err != nil {
			return nil, err
		}
		got := ScaleSeconds(r.All.Mean, pairs, FullPairs)
		if kind == malloc.KindPTMalloc {
			base = got
		}
		t.AddRow(string(kind), got, ScaleSeconds(r.All.Stddev, pairs, FullPairs), ratio(got, base))
	}
	t.Note("the single lock collapses; per-thread arenas edge out the trylock sweep")
	noteScale(t, o)
	return t, nil
}

// AblationAlignment (A3) summarizes benchmark 3's aligned-vs-normal worst
// cases per thread count.
func AblationAlignment(o Options) (*Table, error) {
	t := &Table{ID: "A3", Title: "cache-aligned allocation vs false sharing (worst size in 3-52B)",
		Columns: []string{"threads", "aligned worst(s)", "normal worst(s)", "slowdown"}}
	for _, threads := range []int{2, 3, 4} {
		worstA, worstN := 0.0, 0.0
		for size := uint32(3); size <= 52; size += 7 {
			a, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: threads, Size: size,
				Writes: 100_000_000, Aligned: true, Runs: 2, Seed: o.seed()})
			if err != nil {
				return nil, err
			}
			n, err := RunBench3(B3Config{Profile: QuadXeon500(), Threads: threads, Size: size,
				Writes: 100_000_000, Aligned: false, Runs: 3, Seed: o.seed()})
			if err != nil {
				return nil, err
			}
			if a.Wall.Max > worstA {
				worstA = a.Wall.Max
			}
			if n.Wall.Max > worstN {
				worstN = n.Wall.Max
			}
		}
		t.AddRow(threads, worstA, worstN, fmt.Sprintf("%.2fx", worstN/worstA))
	}
	return t, nil
}

// AblationSbrkMmap (A4) measures how many 60KB allocations succeed once the
// brk range is exhausted, with and without the glibc >=2.1.3 mmap retry.
func AblationSbrkMmap(o Options) (*Table, error) {
	t := &Table{ID: "A4", Title: "sbrk blocked by library mapping: retry-with-mmap on/off",
		Columns: []string{"retry with mmap", "successful 60KB allocations (cap 200)"}}
	for _, retry := range []bool{true, false} {
		prof := QuadXeon500()
		prof.HeapParams.RetrySbrkWithMmap = retry
		w := NewWorld(prof, o.seed())
		count := 0
		err := w.Run(func(main *sim.Thread) {
			inst, err := w.AddInstance(main)
			if err != nil {
				panic(err)
			}
			// Exhaust the brk range up to the library mapping.
			room := int64(vm.LibBase-inst.AS.Brk()) - 8*vm.PageSize
			if _, err := inst.AS.Sbrk(main, room); err != nil {
				panic(err)
			}
			for i := 0; i < 200; i++ {
				if _, err := inst.Alloc.Malloc(main, 60*1024); err != nil {
					break
				}
				count++
			}
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(retry, count)
	}
	t.Note("without the retry, the allocator dies once the data segment hits the C library (§3)")
	return t, nil
}

// AblationTrim (A5) shows the trim threshold trading page faults against
// held memory across allocation bursts.
func AblationTrim(o Options) (*Table, error) {
	t := &Table{ID: "A5", Title: "heap trim on/off across allocate-free-allocate bursts",
		Columns: []string{"trim", "trims", "minor faults", "peak mapped(KB)", "final mapped(KB)"}}
	for _, trim := range []bool{true, false} {
		prof := QuadXeon500()
		prof.HeapParams.Trim = trim
		prof.HeapParams.TrimThreshold = 64 * 1024
		w := NewWorld(prof, o.seed())
		var faults, peak, final uint64
		var trims uint64
		err := w.Run(func(main *sim.Thread) {
			inst, err := w.AddInstance(main)
			if err != nil {
				panic(err)
			}
			al := inst.Alloc
			for burst := 0; burst < 5; burst++ {
				var ps []uint64
				for i := 0; i < 128; i++ {
					p, err := al.Malloc(main, 8192)
					if err != nil {
						panic(err)
					}
					// Touch the object so its pages really fault in.
					inst.AS.Write8(main, p, 1)
					ps = append(ps, p)
				}
				for _, p := range ps {
					if err := al.Free(main, p); err != nil {
						panic(err)
					}
				}
			}
			st := inst.AS.Stats()
			faults, peak, final = st.MinorFaults, st.PeakMapped/1024, st.MappedBytes/1024
			trims = al.Stats().Heap.Trims
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(trim, trims, faults, peak, final)
	}
	t.Note("trim returns pages (smaller final footprint) at the price of refaults on the next burst")
	return t, nil
}

// AblationKernelLock (A6) compares two sbrk-heavy processes under a shared
// (pre-patch) vs per-process kernel lock, the authors' mm/mmap.c change.
func AblationKernelLock(o Options) (*Table, error) {
	t := &Table{ID: "A6", Title: "global vs per-mm kernel lock, two sbrk-heavy processes",
		Columns: []string{"kernel lock", "wall(s)", "kernel lock contention"}}
	for _, global := range []bool{true, false} {
		prof := QuadXeon500()
		// Make heap growth constant by disabling trim hysteresis gains.
		prof.HeapParams.TrimThreshold = 32 * 1024
		opts := []WorldOption{}
		if global {
			opts = append(opts, WithGlobalKernelLock())
		}
		w := NewWorld(prof, o.seed(), opts...)
		var wall float64
		var contended uint64
		err := w.Run(func(main *sim.Thread) {
			insts := make([]*Instance, 2)
			for i := range insts {
				inst, err := w.AddInstance(main)
				if err != nil {
					panic(err)
				}
				insts[i] = inst
			}
			start := main.Now()
			var ws []*sim.Thread
			for i := 0; i < 2; i++ {
				inst := insts[i]
				w.BindThread(main, inst)
				ws = append(ws, main.Spawn(fmt.Sprintf("grower-%d", i), func(th *sim.Thread) {
					// Alternating growth and release keeps sbrk busy.
					for j := 0; j < 400; j++ {
						var ps []uint64
						for k := 0; k < 32; k++ {
							p, err := inst.Alloc.Malloc(th, 8192)
							if err != nil {
								panic(err)
							}
							ps = append(ps, p)
						}
						for _, p := range ps {
							if err := inst.Alloc.Free(th, p); err != nil {
								panic(err)
							}
						}
					}
				}))
			}
			for _, wk := range ws {
				main.Join(wk)
			}
			wall = w.Seconds(main.Now() - start)
			if w.sharedKernel != nil {
				contended = w.sharedKernel.Contended
			}
		})
		if err != nil {
			return nil, err
		}
		name := "per-mm (patched)"
		if global {
			name = "global (pre-2.3.x)"
		}
		t.AddRow(name, wall, contended)
	}
	t.Note("the authors' kernel patch removed the global lock from most sbrk paths")
	return t, nil
}

// Ablations returns the ablation registry.
func Ablations() []Experiment {
	return []Experiment{
		{"A1", "Allocator design comparison (incl. per-thread arenas)", "single lock collapses; arenas scale", AblationArenaPolicy},
		{"A3", "Cache-line alignment on/off", "alignment removes false-sharing slowdowns", AblationAlignment},
		{"A4", "sbrk retry-with-mmap on/off", "without retry, allocation fails at the library mapping", AblationSbrkMmap},
		{"A5", "Heap trim on/off", "trim trades refaults for footprint", AblationTrim},
		{"A6", "Global vs per-mm kernel lock", "the authors' sbrk kernel patch", AblationKernelLock},
	}
}
