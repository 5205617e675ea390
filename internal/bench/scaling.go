package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
)

// This file is experiment D5, the contention-scaling study: what the paper's
// benchmark 1 did to the serial and ptmalloc designs at 2-6 threads, asked
// again at 8-64 threads against all five designs — including the lock-free
// design, whose tiers 2 and 3 replace every mutex with CAS retry loops (a
// Treiber-stack depot and a buddy page backend). The host is the numa-500
// machine widened to 64 CPUs over 4 nodes, so every thread runs in parallel
// and the only scaling limit is the allocator's synchronization. The
// diagnosis columns are the contention currencies themselves: arena and depot
// lock acquisitions, ptmalloc's trylock failures, and the CAS attempt / fail
// / retry-cycle counters the lock-free paths pay instead of lock waits.

// ExpScaling (D5) sweeps the Larson server workload across 8/16/32/64
// threads for each allocator design, then probes the two designs that
// survive full load (threadcache, lockfree) under two harder regimes: the
// Origin-class 2.8x interconnect, and a node-imbalanced Larson where 8
// producers packed on one node allocate everything and 24 consumers
// elsewhere only free — aiming every free at one node's depot and buddy.
func ExpScaling(o Options) (*Table, error) {
	ops := o.scaled(4000, 200)
	designs := []malloc.Kind{malloc.KindSerial, malloc.KindPTMalloc, malloc.KindPerThread, malloc.KindThreadCache, malloc.KindLockFree}
	t := &Table{ID: "D5", Title: "contention scaling, 64-CPU 4-node 500MHz host: Larson at 8-64 threads, five designs",
		Columns: []string{"profile", "workload", "allocator", "threads", "ops/s", "arena locks", "depot locks", "trylock fails", "cas attempts", "cas fails", "cas retry(k)"}}

	addRow := func(profName, workload string, kind malloc.Kind, n int, r LarsonRun) {
		s := r.AllocStats
		t.AddRow(profName, workload, string(kind), n,
			fmt.Sprintf("%.0f", r.Throughput),
			s.ArenaLockAcqs, s.DepotLockAcqs, s.TrylockFailures,
			s.CASAttempts, s.CASFails, fmt.Sprintf("%.1f", float64(s.CASRetryCycles)/1000))
	}

	prof := NUMAServerScale(4, 64)
	type key struct {
		kind    malloc.Kind
		threads int
	}
	tput := make(map[key]float64)
	for _, kind := range designs {
		for _, n := range []int{8, 16, 32, 64} {
			lcfg := LarsonConfig{Profile: prof, Threads: n, Slots: 200,
				MinSize: 10, MaxSize: 100, Ops: ops, Runs: 1, Seed: o.seed()}
			lcfg.Profile.Allocator = kind
			lar, err := RunLarson(lcfg)
			if err != nil {
				return nil, fmt.Errorf("D5 %s larson %dt: %w", kind, n, err)
			}
			addRow(prof.Name, "larson", kind, n, lar.Runs[0])
			tput[key{kind, n}] = lar.Runs[0].Throughput
		}
	}

	// The probes: only the two magazine designs. The origin probe re-runs the
	// 32-thread point with remote memory at 2.8x and objects touched, so the
	// placement penalty is billed. The imbalanced probe is the tier-2/3
	// stress the balanced sweep lacks (magazines absorb same-thread
	// replaces): threads/4 producers spawn first and pack one node (at most
	// 16, the node's CPU count), every displaced object crosses to a
	// consumer on another node, and the sweep shows which synchronization
	// survives the free storm as producers and consumers both scale.
	imb := make(map[key]float64)
	for _, kind := range []malloc.Kind{malloc.KindThreadCache, malloc.KindLockFree} {
		lcfg := LarsonConfig{Profile: OriginServer(4, 64), Threads: 32, Slots: 200,
			MinSize: 10, MaxSize: 100, Ops: ops, Runs: 1, Seed: o.seed(),
			TouchObjects: true}
		lcfg.Profile.Allocator = kind
		lar, err := RunLarson(lcfg)
		if err != nil {
			return nil, fmt.Errorf("D5 origin-touch %s: %w", kind, err)
		}
		addRow(lcfg.Profile.Name, "origin-touch", kind, 32, lar.Runs[0])
	}
	for _, kind := range []malloc.Kind{malloc.KindThreadCache, malloc.KindLockFree} {
		for _, n := range []int{16, 32, 64} {
			lcfg := LarsonConfig{Profile: prof, Threads: n, Slots: 200,
				MinSize: 10, MaxSize: 100, Ops: ops, Runs: 1, Seed: o.seed(),
				Producers: n / 4}
			lcfg.Profile.Allocator = kind
			lar, err := RunLarson(lcfg)
			if err != nil {
				return nil, fmt.Errorf("D5 imbalanced %s %dt: %w", kind, n, err)
			}
			addRow(prof.Name, "imbalanced", kind, n, lar.Runs[0])
			imb[key{kind, n}] = lar.Runs[0].Throughput
		}
	}

	// The acceptance comparison: scaling from 16 to 64 threads. A design
	// whose synchronization holds should multiply throughput close to the 4x
	// thread multiplier; the serial and ptmalloc designs flatline long
	// before.
	for _, kind := range designs {
		lo, hi := tput[key{kind, 16}], tput[key{kind, 64}]
		if lo > 0 {
			t.Note("%s: 16t->64t throughput x%.2f (%.0f -> %.0f ops/s)", kind, hi/lo, lo, hi)
		}
	}
	tc64, lf64 := tput[key{malloc.KindThreadCache, 64}], tput[key{malloc.KindLockFree, 64}]
	if tc64 > 0 {
		t.Note("acceptance: at 64 threads lockfree runs %.2fx threadcache with zero arena and depot lock acquisitions; its contention shows up only as cas fails/retry cycles", lf64/tc64)
	}
	itc, ilf := imb[key{malloc.KindThreadCache, 64}], imb[key{malloc.KindLockFree, 64}]
	if itc > 0 {
		t.Note("imbalanced probe: threadcache peaks at 32 threads and falls 32t->64t x%.2f as the free storm convoys its mutexes; lockfree keeps rising (32t->64t x%.2f) and finishes %.2fx threadcache at 64 threads (%.0f vs %.0f ops/s)",
			itc/imb[key{malloc.KindThreadCache, 32}],
			ilf/imb[key{malloc.KindLockFree, 32}],
			ilf/itc, ilf, itc)
	}
	t.Note("arena/depot locks count mutex acquisitions in tiers 3/2; cas attempts/fails count the lock-free design's retry loops (depot Treiber stacks, buddy bitmaps, pool cursor); retry(k) is the cycles they cost")
	t.Note("larson ran 200 slots x %d replace ops per thread of 10-100B objects; the imbalanced probe gives each of threads/4 producers %d ops and routes every displaced object to a consumer mailbox", ops, ops)
	if ops != 4000 {
		t.Note("workload scaled down from 4000 ops per thread")
	}
	return t, nil
}
