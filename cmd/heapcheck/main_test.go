package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mtmalloc/internal/bench"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/telemetry"
)

// TestCheckCounts: each numeric flag out of range is refused by name, and
// the smallest valid values, the defaults and the widest valid rates pass.
func TestCheckCounts(t *testing.T) {
	defaults := counts{seeds: 5, threads: 4, ops: 20000, maxSize: 4000, checkEvery: 1000}
	for _, c := range []counts{
		{seeds: 1, threads: 1, ops: 1, maxSize: 1},
		defaults,
		{seeds: 1, threads: 1, ops: 1, maxSize: 1, nodes: 2, scavenge: 50000, faultRate: 1, memLimitRatio: 1.25},
	} {
		if err := checkCounts(c); err != nil {
			t.Errorf("checkCounts(%+v) refused valid flags: %v", c, err)
		}
	}
	cases := []struct {
		flag string
		set  func(*counts)
	}{
		{"-seeds", func(c *counts) { c.seeds = 0 }},
		{"-threads", func(c *counts) { c.threads = 0 }},
		{"-ops", func(c *counts) { c.ops = 0 }},
		{"-maxsize", func(c *counts) { c.maxSize = 0 }},
		{"-ops", func(c *counts) { c.ops = -3 }},
		{"-check-every", func(c *counts) { c.checkEvery = -1 }},
		{"-nodes", func(c *counts) { c.nodes = -3 }},
		{"-scavenge", func(c *counts) { c.scavenge = -5 }},
		{"-faultrate", func(c *counts) { c.faultRate = -1 }},
		{"-faultrate", func(c *counts) { c.faultRate = 1.5 }},
		{"-faultrate", func(c *counts) { c.faultRate = math.NaN() }},
		{"-memlimit-ratio", func(c *counts) { c.memLimitRatio = -1 }},
		{"-memlimit-ratio", func(c *counts) { c.memLimitRatio = math.NaN() }},
		{"-memlimit-ratio", func(c *counts) { c.memLimitRatio = math.Inf(1) }},
	}
	for _, tc := range cases {
		c := defaults
		tc.set(&c)
		err := checkCounts(c)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("checkCounts(%+v) = %v, want an error naming %s", c, err, tc.flag)
		}
	}
}

// TestMemLimit: -memlimit-ratio times the measured peak is the commit
// limit, and a ratio that rounds it to 0 bytes is refused, naming the flag
// and the peak.
func TestMemLimit(t *testing.T) {
	if got, err := memLimit(1.25, 1000); got != 1250 || err != nil {
		t.Errorf("memLimit(1.25, 1000) = %d, %v, want 1250, nil", got, err)
	}
	for _, c := range []struct {
		ratio float64
		peak  uint64
	}{{1e-9, 500_000}, {0.5, 1}, {1, 0}} {
		_, err := memLimit(c.ratio, c.peak)
		if err == nil || !strings.HasPrefix(err.Error(), "-memlimit-ratio ") || !strings.Contains(err.Error(), fmt.Sprintf("peak of %d bytes", c.peak)) {
			t.Errorf("memLimit(%v, %d) = %v, want an error naming -memlimit-ratio and the peak", c.ratio, c.peak, err)
		}
	}
}

// TestTelemetryExport: a seed with telemetry on writes a report and a
// Chrome trace that parse, and the recorder counts every malloc and free
// exactly once. The offloaded seed's trace holds events and its service
// threads' mailbox work is non-zero; the faulting seed runs emergency
// rescues that yield while other threads' ops go on; the one-thread seed is
// shorter than one sampling epoch, so its time series is empty and still
// valid. The directory check accepts the directory and an unset flag, and
// refuses a regular file and a missing path.
func TestTelemetryExport(t *testing.T) {
	prof, err := bench.ProfileByName("quad-xeon-500")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, d := range []string{dir, ""} {
		if err := checkDir(d); err != nil {
			t.Fatalf("checkDir(%q) = %v, want nil", d, err)
		}
	}
	for _, c := range []struct {
		name string
		cfg  tortureConfig
	}{
		{"threadcache-svc", tortureConfig{kind: malloc.KindThreadCacheSvc, threads: 4, ops: 2000}},
		{"threadcache-faults", tortureConfig{kind: malloc.KindThreadCache, threads: 4, ops: 5000, faultRate: 0.05}},
		{"serial-short", tortureConfig{kind: malloc.KindSerial, threads: 1, ops: 200}},
	} {
		cfg := c.cfg
		cfg.prof, cfg.maxSize, cfg.checkEvery, cfg.seed, cfg.telemetry = prof, 4000, 1000, 1, true
		r, err := torture(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base := filepath.Join(dir, c.name)
		if err := writeTelemetry(base, r.telemetry, r.ops-r.retries); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var rep telemetry.Report
		readJSON(t, base+".json", &rep)
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		readJSON(t, base+".trace.json", &trace)
		switch c.name {
		case "threadcache-svc":
			if rep.TotalMailboxCycles == 0 {
				t.Error("threadcache-svc recorded no mailbox cycles: the service threads' work is missing")
			}
			if len(trace.TraceEvents) == 0 {
				t.Error("the threadcache-svc trace holds no events")
			}
		case "threadcache-faults":
			if r.retries == 0 {
				t.Error("threadcache at -faultrate 0.05 ran no emergency retries")
			}
		case "serial-short":
			if len(rep.Samples) != 0 {
				t.Errorf("the 200-op seed sampled %d points, want none", len(rep.Samples))
			}
		}
	}

	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{file, filepath.Join(dir, "missing")} {
		if err := checkDir(p); err == nil {
			t.Errorf("checkDir(%s) accepted a path that is no directory", p)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
