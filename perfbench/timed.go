package main

import (
	"sort"

	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
)

// timedAlloc is the timing decorator every workload call goes through: it
// reads the calling thread's simulated clock around each Malloc and Free and
// records the difference while on is set. Reading the clock charges nothing,
// so the decorator cannot move a single simulated number (the test suite
// checks this). Everything else passes through to the wrapped allocator.
//
// The decorator hides the optional interfaces of the allocator it wraps
// (Service, Scavenger, ParkedBytes), because malloc.ServiceOf,
// malloc.AttachTelemetry and those lookups type-assert the allocator's own
// shell: callers must hand them the unwrapped allocator.
type timedAlloc struct {
	malloc.Allocator
	on  bool
	lat latHist
}

func (a *timedAlloc) Malloc(t *sim.Thread, size uint32) (uint64, error) {
	start := t.Now()
	p, err := a.Allocator.Malloc(t, size)
	if a.on {
		a.lat.add(uint64(t.Now() - start))
	}
	return p, err
}

func (a *timedAlloc) Free(t *sim.Thread, mem uint64) error {
	start := t.Now()
	err := a.Allocator.Free(t, mem)
	if a.on {
		a.lat.add(uint64(t.Now() - start))
	}
	return err
}

// denseCycles bounds the latencies latHist counts in a flat array; rarer,
// longer calls (syscalls, lock convoys) are kept individually.
const denseCycles = 1 << 16

// latHist records latencies exactly while a run is in progress.
type latHist struct {
	dense []uint32
	tail  []uint64
}

func (h *latHist) add(c uint64) {
	if c < denseCycles {
		if h.dense == nil {
			h.dense = make([]uint32, denseCycles)
		}
		h.dense[c]++
		return
	}
	h.tail = append(h.tail, c)
}

// dist compacts the histogram into a latDist.
func (h *latHist) dist() latDist {
	var d latDist
	for c, k := range h.dense {
		if k > 0 {
			d = append(d, latBin{uint64(c), uint64(k)})
		}
	}
	sort.Slice(h.tail, func(i, j int) bool { return h.tail[i] < h.tail[j] })
	for _, c := range h.tail {
		if n := len(d); n > 0 && d[n-1].cycles == c {
			d[n-1].n++
			continue
		}
		d = append(d, latBin{c, 1})
	}
	return d
}

type latBin struct{ cycles, n uint64 }

// latDist is an exact latency distribution: the distinct latencies seen,
// ascending, with their counts. Percentiles are the nearest-rank sample,
// not a bucket bound, so they move with every cycle a change saves.
type latDist []latBin

func (d latDist) count() uint64 {
	var n uint64
	for _, b := range d {
		n += b.n
	}
	return n
}

// quantile returns the nearest-rank q-quantile: the smallest sample with at
// least ceil(q*n) samples at or below it. An empty distribution reports 0.
func (d latDist) quantile(q float64) uint64 {
	n := d.count()
	if n == 0 {
		return 0
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range d {
		cum += b.n
		if cum >= rank {
			return b.cycles
		}
	}
	return d[len(d)-1].cycles
}

// beyond counts the samples strictly above v: the support behind a
// percentile.
func (d latDist) beyond(v uint64) uint64 {
	var n uint64
	for _, b := range d {
		if b.cycles > v {
			n += b.n
		}
	}
	return n
}

// merge returns the distribution of both sample sets.
func (d latDist) merge(o latDist) latDist {
	out := make(latDist, 0, len(d)+len(o))
	i, j := 0, 0
	for i < len(d) || j < len(o) {
		switch {
		case j == len(o) || (i < len(d) && d[i].cycles < o[j].cycles):
			out = append(out, d[i])
			i++
		case i == len(d) || o[j].cycles < d[i].cycles:
			out = append(out, o[j])
			j++
		default:
			out = append(out, latBin{d[i].cycles, d[i].n + o[j].n})
			i++
			j++
		}
	}
	return out
}
