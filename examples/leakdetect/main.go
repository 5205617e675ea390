// Leakdetect reproduces benchmark 2's heap-leak mechanism interactively:
// objects allocated in one thread and freed in another make ptmalloc
// scatter free memory across arenas, so the process's footprint exceeds
// what a perfect allocator would need. The example runs rounds of
// producer/consumer handoffs, compares measured minor faults against the
// paper's lower-bound predictor, and walks the arenas to show where the
// orphaned free space lives.
package main

import (
	"fmt"
	"log"

	"mtmalloc"
)

func main() {
	prof := mtmalloc.K6_400()
	const threads, rounds = 3, 8

	fmt.Printf("heap-leak probe: %d chains x %d rounds of 10,000 40-byte objects on %s\n\n",
		threads, rounds, prof.Name)

	res, err := mtmalloc.RunBench2(mtmalloc.B2Config{
		Profile: prof, Threads: threads, Rounds: rounds,
		Objects: 10000, Size: 40, Runs: 5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	pred := mtmalloc.PredictMinorFaults(threads, rounds)
	fmt.Printf("minor faults over 5 runs: min=%.0f avg=%.1f max=%.0f\n",
		res.Faults.Min, res.Faults.Mean, res.Faults.Max)
	fmt.Printf("perfect-allocator lower bound: %.1f\n", pred)
	fmt.Printf("leak above lower bound: %.0f pages avg (%.0f%% run-to-run spread)\n\n",
		res.Faults.Mean-pred, 100*res.Faults.RelSpread())

	// Re-run one instance by hand to inspect the final arena layout.
	w := mtmalloc.NewWorld(prof, 99)
	err = w.Run(func(main *mtmalloc.Thread) {
		inst, err := w.AddInstance(main)
		if err != nil {
			log.Fatal(err)
		}
		al, as := inst.Alloc, inst.AS
		// Producer allocates, consumer frees: the classic orphaning pair.
		var objs []uint64
		prod := main.Spawn("producer", func(t *mtmalloc.Thread) {
			al.AttachThread(t)
			defer al.DetachThread(t)
			for i := 0; i < 10000; i++ {
				p, err := al.Malloc(t, 40)
				if err != nil {
					log.Fatal(err)
				}
				objs = append(objs, p)
			}
		})
		main.Join(prod)
		cons := main.Spawn("consumer", func(t *mtmalloc.Thread) {
			al.AttachThread(t)
			defer al.DetachThread(t)
			// The consumer also allocates its own working set, so it sits
			// on a different arena, then frees the producer's objects into
			// the producer's arena.
			mine, err := al.Malloc(t, 4096)
			if err != nil {
				log.Fatal(err)
			}
			defer al.Free(t, mine)
			for _, p := range objs {
				if err := al.Free(t, p); err != nil {
					log.Fatal(err)
				}
			}
		})
		main.Join(cons)

		fmt.Println("arena layout after cross-thread frees:")
		for _, a := range al.Arenas() {
			inUse, free := a.ChunkCount()
			fmt.Printf("  arena %d (main=%v): %5d chunks in use, %5d free, %7d bytes free\n",
				a.Index, a.IsMain, inUse, free, a.FreeBytes())
		}
		st := as.Stats()
		fmt.Printf("vm: %d minor faults, %d KB peak mapped\n", st.MinorFaults, st.PeakMapped/1024)
		if err := al.Check(); err != nil {
			log.Fatalf("heap integrity: %v", err)
		}
		fmt.Println("heap integrity: ok — the free space is intact, just stranded per-arena")
	})
	if err != nil {
		log.Fatal(err)
	}
}
