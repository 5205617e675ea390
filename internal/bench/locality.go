package bench

import (
	"fmt"

	"mtmalloc/internal/malloc"
)

// This file is experiment D4, the locality study: the paper's central
// question — does memory live near the threads that touch it? — asked one
// level below the arena, at the NUMA node. The same workloads run twice on
// each machine of the numa-500 profile family (1, 2 and 4 nodes, identical
// per-CPU costs): once with node-blind placement (one flat arena pool,
// first-touch mappings, one depot, pure-LIFO reuse cache — the pre-NUMA
// thread cache) and once node-sharded (per-node arena shards with bound
// mappings, per-node depots, Hoard-style remote-free routing, node-affine
// reuse hand-outs). The currency compared is the vm layer's remote-access
// counter: every fault, memory-served miss and reuse hand-out that crossed
// a node boundary and paid the RemoteAccess multiplier.

// ExpLocality (D4) compares node-blind and node-sharded placement on
// benchmark 2 (producer/consumer chains: every round's successor frees its
// predecessor's chunks, the cross-node free generator) and a Larson variant
// whose objects are all above the mmap threshold with randomized sizes
// (132-148KB) and are written page by page after every allocation, so
// replacements cycle through the reuse cache's page-rounded lengths, hand-outs
// routinely cross threads — and, when placement is blind, nodes — and every
// page of a remotely-homed buffer bills the interconnect.
func ExpLocality(o Options) (*Table, error) {
	const b2Objects, larOps = 2000, 1200
	t := &Table{ID: "D4", Title: "NUMA locality: node-blind vs node-sharded placement, 8-CPU 500MHz hosts at 1/2/4 nodes",
		Columns: []string{"profile", "config", "threads", "b2 remote acc", "b2 remote frees", "b2 faults", "lar remote acc", "lar rem cycles(k)", "lar rem hands", "lar ops/s"}}

	type key struct {
		nodes, threads int
		blind          bool
	}
	larRemote := make(map[key]float64)
	for _, nodes := range []int{1, 2, 4} {
		prof := NUMAServer(nodes)
		prof.Allocator = malloc.KindThreadCache
		for _, blind := range []bool{true, false} {
			mode := "node-sharded"
			if blind {
				mode = "node-blind"
			}
			for _, n := range []int{1, 2, 4, 8} {
				b2cfg := DefaultB2(prof)
				b2cfg.Threads = n
				b2cfg.Rounds = 3
				b2cfg.Objects = b2Objects
				b2cfg.BatchReplace = 100
				b2cfg.TouchObjects = true
				b2cfg.Runs = 1
				b2cfg.Seed = o.seed()
				b2cfg.Profile.AllocCosts.NUMANodeBlind = blind
				b2, err := RunBench2(b2cfg)
				if err != nil {
					return nil, fmt.Errorf("D4 %s %s bench2 %dt: %w", prof.Name, mode, n, err)
				}
				b2r := b2.Runs[0]

				lcfg := LarsonConfig{Profile: prof, Threads: n, Slots: 32,
					MinSize: 132 * 1024, MaxSize: 148 * 1024, Ops: larOps, Runs: 1,
					TouchObjects: true, Seed: o.seed()}
				// The reuse cap is raised so the in-flight large regions
				// never hit FIFO eviction (which would turn placement noise
				// into syscall noise); placement is the one knob under study.
				lcfg.Profile.AllocCosts.MmapReuseCap = 128 << 20
				lcfg.Profile.AllocCosts.NUMANodeBlind = blind
				lar, err := RunLarson(lcfg)
				if err != nil {
					return nil, fmt.Errorf("D4 %s %s larson %dt: %w", prof.Name, mode, n, err)
				}
				lvs := lar.Runs[0].VMStats
				larRemote[key{nodes, n, blind}] = float64(lvs.RemoteAccesses)

				t.AddRow(prof.Name, mode, n,
					b2r.VMStats.RemoteAccesses, b2r.AllocStats.RemoteFrees, b2r.VMStats.MinorFaults,
					lvs.RemoteAccesses, fmt.Sprintf("%.1f", float64(lvs.RemoteAccessCycles)/1000),
					lvs.ReuseRemoteHands, fmt.Sprintf("%.0f", lar.Runs[0].Throughput))
			}
		}
	}

	// The acceptance comparison: on the 4-node machine at 8 threads, how much
	// of the node-blind Larson run's remote traffic does sharding eliminate?
	blind := larRemote[key{4, 8, true}]
	shard := larRemote[key{4, 8, false}]
	if blind > 0 {
		t.Note("acceptance: 4-node Larson at 8 threads — node-sharded placement cut remote-access charges %.1f%% (blind %.0f -> sharded %.0f; criterion >= 50%%)",
			100*(1-shard/blind), blind, shard)
	}
	for _, n := range []int{2, 4} {
		b, s := larRemote[key{n, 8, true}], larRemote[key{n, 8, false}]
		if b > 0 {
			t.Note("%d-node Larson 8t remote accesses: blind %.0f, sharded %.0f (%.1f%% cut)", n, b, s, 100*(1-s/b))
		}
	}
	t.Note("remote acc counts cross-node charged events (faults, memory-served misses, reuse hand-outs); rem cycles is the extra charge they paid at the 2.0x interconnect rate")
	t.Note("bench2's chains hand whole working sets to successor threads on other nodes — traffic no placement policy can make local. Sharding routes those frees home (b2 remote frees) and cuts remote traffic at full load (8 threads); at partial load the node-bound arenas pay extra remote header touches when a successor lands off-node, a real cost of binding under thread migration")
	t.Note("the 1-node rows are the control: no event can cross a node, so both placements read zero and identical throughput")
	t.Note("bench2 ran (threads) chains x 3 rounds x %d objects with 100-object replace bursts; larson ran 32 slots x %d ops per thread of 132-148KB objects, touched page-by-page (mmap path, 128MB reuse cap)", b2Objects, larOps)
	return t, nil
}
