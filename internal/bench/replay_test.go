package bench

import (
	"strconv"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/malloc"
)

// These golden values were captured from the experiment harness before the
// contention-pricing refactor (the ContentionPoint abstraction, the pluggable
// depot, and the buddy backend). The four mutex-priced designs must re-derive
// them bit-for-bit: the refactor may add new code paths, but the existing
// kinds' charge sequences, RNG draw order, and scheduling decisions must be
// untouched. Throughputs are compared as exact float64 values (hex encoded to
// survive source formatting); counters are compared exactly.

func hexf(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad golden constant %q: %v", s, err)
	}
	return v
}

func wantf(t *testing.T, what string, got float64, wantHex string) {
	t.Helper()
	if want := hexf(t, wantHex); got != want {
		t.Errorf("%s = %v (%s), want %s (bit-identical replay broken)",
			what, got, strconv.FormatFloat(got, 'x', -1, 64), wantHex)
	}
}

func wantu(t *testing.T, what string, got, want uint64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want %d (bit-identical replay broken)", what, got, want)
	}
}

// TestReplayBench1 replays the D1 benchmark-1 configuration for each of the
// four pre-refactor kinds and checks per-thread times and lock counters
// against pre-refactor goldens.
func TestReplayBench1(t *testing.T) {
	goldens := []struct {
		kind      malloc.Kind
		perThread [4]string
		trylock   uint64
		lockAcqs  uint64
		arenas    int
	}{
		{malloc.KindPTMalloc,
			[4]string{"0x1.067ec6fccb8f8p-05", "0x1.b4a9684c4d3e3p-06", "0x1.b4da63747fbfep-06", "0x1.b48ed0c65f281p-06"},
			12, 160000, 4},
		{malloc.KindSerial,
			[4]string{"0x1.9cab0a4086eap-03", "0x1.35af1dc2e7237p-03", "0x1.8e75acb304825p-03", "0x1.879213a488c72p-03"},
			0, 160000, 1},
		{malloc.KindPerThread,
			[4]string{"0x1.b408838fca967p-06", "0x1.b4a43f9879e78p-06", "0x1.b4bdbff226812p-06", "0x1.b43cf155a0cefp-06"},
			0, 160000, 5},
		{malloc.KindThreadCache,
			[4]string{"0x1.4a345f35ce20cp-07", "0x1.18facdbc0b08ap-07", "0x1.19a0d06f9995fp-07", "0x1.185231502f177p-07"},
			0, 4, 4},
	}
	for _, g := range goldens {
		g := g
		t.Run(string(g.kind), func(t *testing.T) {
			prof := QuadXeon500()
			prof.Allocator = g.kind
			cfg := B1Config{
				Profile: prof,
				Threads: 4,
				Size:    512,
				Pairs:   20000,
				Runs:    1,
				Seed:    1,
			}
			res, err := RunBench1(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			if len(run.PerThread) != 4 {
				t.Fatalf("PerThread count = %d, want 4", len(run.PerThread))
			}
			for i, v := range run.PerThread {
				wantf(t, "PerThread["+strconv.Itoa(i)+"]", v, g.perThread[i])
			}
			wantu(t, "TrylockFailures", run.AllocStats.TrylockFailures, g.trylock)
			wantu(t, "ArenaLockAcqs", run.AllocStats.ArenaLockAcqs, g.lockAcqs)
			if run.AllocStats.ArenaCount != g.arenas {
				t.Errorf("ArenaCount = %d, want %d", run.AllocStats.ArenaCount, g.arenas)
			}
		})
	}
}

// TestReplayLarson replays the D1/D2 Larson configuration for each kind.
// The four mutex-era kinds pin the pre-refactor goldens; the lock-free,
// service-offloaded and line-aware rows pin the designs that otherwise had
// only two-run determinism checks, with the CAS, mailbox and
// line-quantization counters their paths move.
func TestReplayLarson(t *testing.T) {
	goldens := []struct {
		name              string // subtest name; the kind's when empty
		kind              malloc.Kind
		lineAware         bool
		throughput        string
		faults            uint64
		lockAcqs          uint64
		depotHits, depotD uint64
		casAttempts       uint64
		casFails          uint64
		svcEpochs         uint64
		svcRefillHits     uint64
		lineQuantBytes    uint64
	}{
		{kind: malloc.KindPTMalloc, throughput: "0x1.c7b2abf1d8b82p+20", faults: 86, lockAcqs: 28004},
		{kind: malloc.KindSerial, throughput: "0x1.324956000cd8bp+18", faults: 82, lockAcqs: 28004},
		{kind: malloc.KindPerThread, throughput: "0x1.029d02436f0ep+21", faults: 87, lockAcqs: 28004},
		{kind: malloc.KindThreadCache, throughput: "0x1.c9fdaee43f3d4p+21", faults: 153, lockAcqs: 306, depotHits: 67, depotD: 145},
		{kind: malloc.KindLockFree, throughput: "0x1.67268099c599dp+22", faults: 24,
			depotHits: 71, depotD: 147, casAttempts: 420, casFails: 32},
		{kind: malloc.KindThreadCacheSvc, throughput: "0x1.93d2853351471p+21", faults: 291, lockAcqs: 470,
			depotHits: 1, depotD: 254, svcEpochs: 8, svcRefillHits: 250},
		{kind: malloc.KindLockFreeSvc, throughput: "0x1.54d5f1a201804p+22", faults: 25,
			depotHits: 27, depotD: 248, casAttempts: 625, casFails: 14, svcEpochs: 13, svcRefillHits: 294},
		{name: "threadcache-lineaware", kind: malloc.KindThreadCache, lineAware: true, throughput: "0x1.d7bee11cc43afp+21", faults: 159, lockAcqs: 280,
			depotHits: 33, depotD: 65, lineQuantBytes: 187856},
	}
	for _, g := range goldens {
		g := g
		name := g.name
		if name == "" {
			name = string(g.kind)
		}
		t.Run(name, func(t *testing.T) {
			prof := QuadXeon500()
			cfg := DefaultLarson(prof)
			cfg.Threads = 4
			cfg.Ops = 3000
			cfg.Runs = 1
			cfg.Seed = 1
			cfg.Profile.Allocator = g.kind
			if g.lineAware {
				cfg.Profile.HeapParams.Align = cache.LineSize
			}
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			st := run.AllocStats
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "MinorFaults", run.VMStats.MinorFaults, g.faults)
			wantu(t, "ArenaLockAcqs", st.ArenaLockAcqs, g.lockAcqs)
			wantu(t, "DepotHits", st.DepotHits, g.depotHits)
			wantu(t, "DepotDonates", st.DepotDonates, g.depotD)
			wantu(t, "CASAttempts", st.CASAttempts, g.casAttempts)
			wantu(t, "CASFails", st.CASFails, g.casFails)
			wantu(t, "SvcEpochs", st.SvcEpochs, g.svcEpochs)
			wantu(t, "SvcRefillHits", st.SvcRefillHits, g.svcRefillHits)
			wantu(t, "LineQuantBytes", st.LineQuantBytes, g.lineQuantBytes)
		})
	}
}

// TestReplayD4Locality replays the D4 NUMA-locality probe (4-node machine,
// sharded vs node-blind) whose remote-access counters depend on the full
// scheduler + vm + pool interleaving.
func TestReplayD4Locality(t *testing.T) {
	goldens := []struct {
		blind      bool
		throughput string
		remote     uint64
		remFrees   uint64
		faults     uint64
	}{
		{false, "0x1.2eeae350b67d1p+22", 0, 0, 296},
		{true, "0x1.1240fb32e2ecep+22", 790, 0, 290},
	}
	for _, g := range goldens {
		g := g
		name := "sharded"
		if g.blind {
			name = "blind"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultLarson(NUMAServer(4))
			cfg.Threads = 8
			cfg.Ops = 2000
			cfg.Runs = 1
			cfg.Seed = 1
			cfg.TouchObjects = true
			cfg.Profile.Allocator = malloc.KindThreadCache
			cfg.Profile.AllocCosts.NUMANodeBlind = g.blind
			res, err := RunLarson(cfg)
			if err != nil {
				t.Fatal(err)
			}
			run := res.Runs[0]
			wantf(t, "Throughput", run.Throughput, g.throughput)
			wantu(t, "RemoteAccesses", run.VMStats.RemoteAccesses, g.remote)
			wantu(t, "RemoteFrees", run.AllocStats.RemoteFrees, g.remFrees)
			wantu(t, "MinorFaults", run.VMStats.MinorFaults, g.faults)
		})
	}
}

// TestReplayD3Scavenge replays the D3 idle-decay scavenger probe, exercising
// the scavenger cascade and depot decay paths.
func TestReplayD3Scavenge(t *testing.T) {
	prof := QuadXeon500()
	costs := prof.ScavengeCosts()
	costs.ScavengeMinBinBytes = 32 << 10
	cfg := DefaultLarson(prof)
	cfg.Threads = 4
	cfg.Ops = 2500
	cfg.Runs = 1
	cfg.Seed = 1
	cfg.Profile.Allocator = malloc.KindThreadCache
	cfg.Profile.AllocCosts = costs
	cfg.Phases = []Phase{{Ops: 1500, IdleSeconds: 0.05}, {Ops: 1000}}
	res, err := RunLarson(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	wantf(t, "Throughput", run.Throughput, "0x1.707b0c236991dp+17")
	wantu(t, "ScavengeEpochs", run.AllocStats.ScavengeEpochs, 2)
	wantu(t, "ScavengeBytes", run.AllocStats.ScavengeBytes, 130224)
	wantu(t, "PagesReleased", run.VMStats.PagesReleased, 0)
}
