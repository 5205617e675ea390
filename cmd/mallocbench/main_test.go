package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagTable: the table names only flags the command defines, every flag
// but -bench is read by some -bench, and a flag the chosen -bench does not
// read is refused by name.
func TestFlagTable(t *testing.T) {
	named := map[string]bool{}
	tables := [][]string{experimentFlags}
	for _, reads := range benchFlags {
		tables = append(tables, reads)
	}
	for _, reads := range tables {
		for _, f := range reads {
			if flags.Lookup(f) == nil {
				t.Errorf("the table names -%s, which is not a flag", f)
			}
			named[f] = true
		}
	}
	flags.VisitAll(func(f *flag.Flag) {
		if f.Name != "bench" && !named[f.Name] {
			t.Errorf("no -bench reads -%s", f.Name)
		}
	})

	cases := []struct {
		reads, set, want []string
	}{
		// Larson reads neither benchmark 1's request shape nor -scale.
		{benchFlags["larson"], []string{"bench", "threads", "runs", "size", "scale", "pairs"}, []string{"-size", "-scale", "-pairs"}},
		{benchFlags["larson"], []string{"bench", "threads", "runs", "telemetry"}, nil},
		{benchFlags["1"], []string{"bench", "threads", "pairs", "size", "processes"}, nil},
		{benchFlags["1"], []string{"telemetry", "rounds"}, []string{"-telemetry", "-rounds"}},
		{benchFlags["2"], []string{"rounds", "objects", "aligned"}, []string{"-aligned"}},
		{benchFlags["3"], []string{"writes", "aligned", "pairs"}, []string{"-pairs"}},
		{experimentFlags, []string{"bench", "scale", "seed", "json", "csv"}, nil},
		{experimentFlags, []string{"bench", "allocator", "scale", "threads"}, []string{"-allocator", "-threads"}},
	}
	for _, c := range cases {
		if got := unread(c.reads, c.set); !slices.Equal(got, c.want) {
			t.Errorf("unread(%v, %v) = %v, want %v", c.reads, c.set, got, c.want)
		}
	}
}
