package main

import (
	"runtime"
	"time"
)

// The machine the benchmark runs on changes speed under it: neighbours on
// shared hardware slow a whole run, or a few seconds of it, by tens of
// percent. Host times are therefore reported at a reference speed. After
// each design's run the benchmark times probe, a fixed kernel shaped like the
// simulator's host work (random map reads and writes over a few megabytes),
// and scales that run's host times by probeRef over the probe's duration.
// The probe uses only the Go runtime, so no change to the repository moves
// it; a change that makes the simulator faster moves host_s alone.

// probeRef is the probe's duration on the reference machine.
const probeRef = 20 * time.Millisecond

const probeOps = 250_000

var probeSink int

func probe() time.Duration {
	runtime.GC()
	start := time.Now()
	m := make(map[uint64]uint64, 1<<15)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < probeOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (1<<16 - 1)
		if v, ok := m[k]; !ok {
			m[k] = x
		} else if v&1 == 0 {
			delete(m, k)
		} else {
			m[k] = v + 1
		}
	}
	probeSink += len(m)
	return time.Since(start)
}

// atReference scales a host duration measured next to a probe of the given
// duration to the reference machine, in seconds.
func atReference(d, probed time.Duration) float64 {
	return d.Seconds() * float64(probeRef) / float64(probed)
}
