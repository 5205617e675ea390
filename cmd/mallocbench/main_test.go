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
	for _, reads := range benchFlags {
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
		// Larson reads neither benchmark 1's request shape nor benchmark 3's
		// write count.
		{benchFlags["larson"], []string{"bench", "threads", "runs", "size", "writes", "pairs"}, []string{"-size", "-writes", "-pairs"}},
		{benchFlags["larson"], []string{"bench", "threads", "runs", "telemetry"}, nil},
		{benchFlags["1"], []string{"bench", "threads", "pairs", "size", "processes"}, nil},
		{benchFlags["1"], []string{"telemetry", "rounds"}, []string{"-telemetry", "-rounds"}},
		{benchFlags["2"], []string{"rounds", "objects", "aligned"}, []string{"-aligned"}},
		{benchFlags["3"], []string{"writes", "aligned", "pairs"}, []string{"-pairs"}},
	}
	for _, c := range cases {
		if got := unread(c.reads, c.set); !slices.Equal(got, c.want) {
			t.Errorf("unread(%v, %v) = %v, want %v", c.reads, c.set, got, c.want)
		}
	}
}
