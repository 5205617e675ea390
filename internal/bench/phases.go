package bench

// Phase is one segment of a phased workload schedule: a burst of Ops
// operations per thread followed by IdleSeconds of simulated idleness.
// Schedules let a benchmark shift between load levels inside one run — the
// burst/idle/burst shape experiment D3 uses to measure footprint decay, and
// the bursty Larson shape (LarsonConfig.Phases).
type Phase struct {
	Ops         int     // operations per thread in the burst
	IdleSeconds float64 // simulated idle time after the burst (0 = none)
}

// totalOps sums the burst operations of a schedule.
func totalOps(phases []Phase) int {
	n := 0
	for _, p := range phases {
		n += p.Ops
	}
	return n
}
