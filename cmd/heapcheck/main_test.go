package main

import (
	"encoding/json"
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

// TestTelemetryExport: one offloaded seed with telemetry on writes a
// report and a Chrome trace that parse, the trace holds events, every op
// kind's tiers sum to its total, and the service threads' mailbox work is
// non-zero. The directory check accepts the directory and an unset flag,
// and refuses a regular file and a missing path.
func TestTelemetryExport(t *testing.T) {
	prof, err := bench.ProfileByName("quad-xeon-500")
	if err != nil {
		t.Fatal(err)
	}
	r, err := torture(tortureConfig{
		prof: prof, kind: malloc.KindThreadCacheSvc,
		threads: 4, ops: 2000, maxSize: 4000, checkEvery: 1000, seed: 1,
		telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, d := range []string{dir, ""} {
		if err := checkDir(d); err != nil {
			t.Fatalf("checkDir(%q) = %v, want nil", d, err)
		}
	}
	base := filepath.Join(dir, "threadcache-svc-seed1")
	if err := writeTelemetry(base, r.telemetry); err != nil {
		t.Fatal(err)
	}

	var rep telemetry.Report
	readJSON(t, base+".json", &rep)
	sums := map[string]uint64{}
	for _, ts := range rep.Tiers {
		sums[ts.Op] += ts.Cycles
	}
	for _, op := range []struct {
		name  string
		total uint64
	}{{"malloc", rep.TotalMallocCycles}, {"free", rep.TotalFreeCycles}, {"mailbox", rep.TotalMailboxCycles}} {
		if sums[op.name] != op.total {
			t.Errorf("%s tiers sum to %d cycles, the report's total is %d", op.name, sums[op.name], op.total)
		}
	}
	if rep.TotalMailboxCycles == 0 {
		t.Error("threadcache-svc recorded no mailbox cycles: the service threads' work is missing")
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	readJSON(t, base+".trace.json", &trace)
	if len(trace.TraceEvents) == 0 {
		t.Error("the trace holds no events")
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
