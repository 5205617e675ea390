package malloc

import (
	"mtmalloc/internal/telemetry"
)

// AttachTelemetry wires rec into al: op recording in the op frame, and a
// sample source that snapshots the allocator for the time series (byte
// gauges per caching tier, pressure level, lock/CAS wait cycles, and the
// per-arena resident-vs-live fragmentation gauge). It reports false for an
// allocator this package did not build. Attaching a nil recorder detaches
// telemetry.
//
// Everything the sample source reads is Go-side bookkeeping — no cycles
// are charged, no locks taken — so an attached recorder cannot perturb
// the simulation.
func AttachTelemetry(al Allocator, rec *telemetry.Recorder) bool {
	f, ok := al.(interface{ frame() *base })
	if !ok {
		return false
	}
	b := f.frame()
	b.tel = rec
	rec.SetSampleSource(b.sample)
	return true
}

// sample builds one time-series point from the allocator's own aggregate
// stats plus the machine's contention-point counters.
func (b *base) sample() telemetry.Sample {
	st := b.Stats()
	s := telemetry.Sample{
		ResidentBytes:  b.as.Stats().ResidentBytes,
		CommittedBytes: st.CommittedBytes,
		CachedBytes:    st.CachedBytes,
		DepotBytes:     st.DepotBytes,
		ParkedBytes:    st.MmapReuseParked,
		PressureLevel:  st.PressureLevel,
	}
	// Machine.Points() is the registration-order slice, so the walk is
	// deterministic. A point driven by compare-and-swap retries reports
	// its wait as CAS cycles; everything else is lock wait.
	for _, p := range b.as.Machine().Points() {
		ps := p.PointStats()
		if ps.CASAttempts > 0 {
			s.CASWaitCycles += uint64(ps.WaitCycles)
		} else {
			s.LockWaitCycles += uint64(ps.WaitCycles)
		}
	}
	for _, a := range b.arenas {
		as := a.Stats()
		s.Arenas = append(s.Arenas, telemetry.ArenaFrag{
			Index:         a.Index,
			ResidentBytes: as.ResidentBytes,
			LiveBytes:     as.BytesInUse,
		})
	}
	return s
}
