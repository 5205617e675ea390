package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mtmalloc/internal/bench"
)

// TestRecordRegenerates pins the ledger contract: a record names its own
// ID, Scale and Seed, and re-running that experiment at those options
// writes the same bytes.
func TestRecordRegenerates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, id string, o bench.Options) []byte {
		e, err := bench.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := writeRecord(path, tab, o); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := write("first.json", "A4", bench.Options{Scale: 0.01, Seed: 3})
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
	again := write("again.json", rec.ID, bench.Options{Scale: rec.Scale, Seed: rec.Seed})
	if !bytes.Equal(first, again) {
		t.Errorf("record does not regenerate from its own ID, Scale and Seed:\n%s\nvs\n%s", first, again)
	}
}

// TestSelectExperiments: no ID runs the whole registry, an ID in either
// case runs that experiment alone, and -json without -experiment is
// refused, since a record holds one experiment.
func TestSelectExperiments(t *testing.T) {
	if _, err := selectExperiments("", "out.json"); err == nil {
		t.Error("-json without -experiment was accepted")
	}
	all, err := selectExperiments("", "")
	if err != nil || len(all) != len(bench.All()) {
		t.Errorf("no -experiment selected %d experiments (%v), want all %d", len(all), err, len(bench.All()))
	}
	one, err := selectExperiments("a4", "out.json")
	if err != nil || len(one) != 1 || one[0].ID != "A4" {
		t.Errorf("-experiment a4 -json selected %d experiments (%v), want A4 alone", len(one), err)
	}
}
