package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mtmalloc/internal/bench"
)

// TestRecordRegenerates pins the ledger contract: -json DIR writes an
// experiment's record to DIR/BENCH_<ID>.json, the record names its own ID,
// Scale and Seed, and re-running that experiment at those options writes
// the same bytes.
func TestRecordRegenerates(t *testing.T) {
	write := func(id string, o bench.Options) []byte {
		e, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := checkFlags(o.Scale, dir); err != nil {
			t.Fatal(err)
		}
		if err := writeRecord(dir, tab, o); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "BENCH_"+e.ID+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := write("A4", bench.Options{Scale: 0.01, Seed: 3})
	if !bytes.HasPrefix(first, []byte("{\n  \"ID\": \"A4\",\n")) || !bytes.HasSuffix(first, []byte("\n}\n")) {
		t.Errorf("record is not the table's fields indented two spaces, ending in a newline:\n%s", first)
	}
	var rec struct {
		ID    string
		Scale float64
		Seed  uint64
	}
	if err := json.Unmarshal(first, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != "A4" || rec.Scale != 0.01 || rec.Seed != 3 {
		t.Fatalf("record names ID %q, Scale %v, Seed %d; want A4, 0.01, 3", rec.ID, rec.Scale, rec.Seed)
	}
	again := write(rec.ID, bench.Options{Scale: rec.Scale, Seed: rec.Seed})
	if !bytes.Equal(first, again) {
		t.Errorf("record does not regenerate from its own ID, Scale and Seed:\n%s\nvs\n%s", first, again)
	}
}

// TestSelectExperiments: no ID runs the whole registry, and an ID in
// either case runs that experiment alone.
func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(bench.All()) {
		t.Errorf("no -experiment selected %d experiments (%v), want all %d", len(all), err, len(bench.All()))
	}
	one, err := selectExperiments("a4")
	if err != nil || len(one) != 1 || one[0].ID != "A4" {
		t.Errorf("-experiment a4 selected %d experiments (%v), want A4 alone", len(one), err)
	}
}

// TestCheckFlags: -scale must lie in (0, 1], NaN refused, and -json must
// name an existing directory.
func TestCheckFlags(t *testing.T) {
	for _, s := range []float64{0, -1, 1.5, math.NaN()} {
		if err := checkFlags(s, ""); err == nil {
			t.Errorf("-scale %v was accepted", s)
		}
	}
	for _, s := range []float64{0.01, 1} {
		if err := checkFlags(s, ""); err != nil {
			t.Errorf("-scale %v was refused: %v", s, err)
		}
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "BENCH_D3.json")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{file, filepath.Join(dir, "missing")} {
		if err := checkFlags(0.01, d); err == nil {
			t.Errorf("-json %s was accepted", d)
		}
	}
}
