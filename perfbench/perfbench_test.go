package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"mtmalloc/internal/heap"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/xrand"
)

// simulated strips a design result down to its simulated observables.
func simulated(r *designResult) []any {
	return []any{r.calls, r.busy, r.rssKB, r.parkedKB, r.arenas, r.layer, r.attempted, r.failed}
}

// The timing decorator, the telemetry recorder and the host spans only read
// clocks: every simulated number must be bit-identical to a bare run.
func TestInstrumentationLeavesSimulationIdentical(t *testing.T) {
	for _, wl := range workloads {
		for _, kind := range designs {
			bare, err := runDesign(wl, kind, 3, runOpts{bare: true})
			if err != nil {
				t.Fatal(err)
			}
			full, err := runDesign(wl, kind, 3, runOpts{trace: newTracer(), telemetry: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := simulated(full), simulated(bare); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: instrumented %v, bare %v", wl.name, kind, got, want)
			}
			if full.lat.count() != full.calls {
				t.Errorf("%s/%s: decorator timed %d calls, benchmark made %d", wl.name, kind, full.lat.count(), full.calls)
			}
		}
	}
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := xrand.New(1, 1)
	var h, h1, h2 latHist
	var ref []uint64
	for i := 0; i < 20000; i++ {
		c := uint64(rng.Intn(600))
		if rng.Intn(50) == 0 {
			c = denseCycles + uint64(rng.Intn(1<<20)) // tail samples
		}
		h.add(c)
		if i%2 == 0 {
			h1.add(c)
		} else {
			h2.add(c)
		}
		ref = append(ref, c)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	d, merged := h.dist(), h1.dist().merge(h2.dist())
	if !reflect.DeepEqual(d, merged) {
		t.Fatal("merging two halves differs from the whole")
	}
	for _, q := range []float64{0.0001, 0.5, 0.9, 0.99, 0.995, 0.999, 1} {
		rank := int(q*float64(len(ref)) + 0.999999999)
		want := ref[rank-1]
		if got := d.quantile(q); got != want {
			t.Errorf("q%v = %d, sorted reference %d", q, got, want)
		}
		beyond := uint64(0)
		for _, c := range ref {
			if c > want {
				beyond++
			}
		}
		if got := d.beyond(want); got != beyond {
			t.Errorf("beyond q%v = %d, want %d", q, got, beyond)
		}
	}
	if (latDist{}).quantile(0.99) != 0 {
		t.Error("empty distribution should report 0")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark defines.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricSpec
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// The metric names follow the benchmark's naming rules, and BENCHMARK.json
// lists exactly the workloads and metrics the benchmark reports.
func TestMetricNames(t *testing.T) {
	e2e, layer := endToEndSpecs(), perLayerSpecs()
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(e2e), len(layer))
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), e2e...), layer...) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better = %q", s.Name, s.Better)
		}
		seen[s.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var listed []metricSpec
	var setupBound, maxBound float64
	for _, m := range f.EndToEnd {
		listed = append(listed, m.metricSpec)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if !reflect.DeepEqual(listed, e2e) || !reflect.DeepEqual(f.PerLayer, layer) {
		t.Error("BENCHMARK.json metrics differ from endToEndSpecs/perLayerSpecs")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
}

// corruptHeader leaves one object the gate does not know about and
// overwrites its chunk's size word.
func corruptHeader(e *env) {
	e.slots = [][]slot{make([]slot, 8)}
	for i := range e.slots[0] {
		e.fill(e.main, &e.slots[0][i], 64, 0)
	}
	p, err := e.call.Malloc(e.main, 64)
	if err != nil {
		panic(err)
	}
	e.as.Write32(e.main, p-heap.HeaderSz+4, 0xfffffff0)
}

func TestGateTripsOnCorruptHeader(t *testing.T) {
	wl := *workloads[0]
	wl.body = corruptHeader
	for _, kind := range []malloc.Kind{malloc.KindSerial, malloc.KindThreadCache} {
		if _, err := runDesign(&wl, kind, 1, runOpts{}); !errors.Is(err, errIncorrect) {
			t.Errorf("%s: gate passed a corrupted chunk header (err %v)", kind, err)
		}
	}
	wl.body = func(e *env) {
		e.slots = [][]slot{make([]slot, 8)}
		for i := range e.slots[0] {
			e.fill(e.main, &e.slots[0][i], 64, 0)
		}
	}
	if _, err := runDesign(&wl, malloc.KindSerial, 1, runOpts{}); err != nil {
		t.Errorf("gate failed an intact heap: %v", err)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "mtmalloc/internal/cache.(*Model).AccessFill", "mtmalloc/internal/vm.(*AddressSpace).charge"}, "cache"},
		{[]string{"mtmalloc/internal/xrand.(*RNG).next", "mtmalloc/internal/sim.(*Machine).spawn"}, "sim"},
		{[]string{"mtmalloc/internal/xrand.(*RNG).Intn", "main.input.slot", "main.larson.func1"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "mtmalloc/internal/heap.NewMain"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"mtmalloc/internal/scavenge.(*Scavenger).Tick"}, "scavenge"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestLayerSecondsDecodesCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	wl := workloads[0]
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := runDesign(wl, malloc.KindLockFree, 1, runOpts{}); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	secs, err := layerSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range hostLayers {
		total += secs[l]
	}
	if len(secs) != len(hostLayers) || total <= 0 || secs["sim"]+secs["vm"]+secs["malloc"]+secs["bench"] <= 0 {
		t.Errorf("layer seconds %v", secs)
	}
}

// A thread waiting at a barrier must see every arrival, and the arrival
// that completes it runs the hook exactly once.
func TestAwait(t *testing.T) {
	e := &env{}
	m := sim.NewMachine(sim.Config{CPUs: 2})
	hooks := 0
	err := m.Run(func(main *sim.Thread) {
		var ths []*sim.Thread
		for i := 0; i < 3; i++ {
			i := i
			ths = append(ths, main.Spawn("w", func(t *sim.Thread) {
				t.Charge(sim.Time(1000 * (i + 1)))
				e.await(t, 3, func(*sim.Thread) { hooks++ })
				if e.arrived != 3 {
					panic("left the barrier early")
				}
			}))
		}
		for _, th := range ths {
			main.Join(th)
		}
	})
	if err != nil || hooks != 1 {
		t.Errorf("err %v, hook ran %d times", err, hooks)
	}
}
