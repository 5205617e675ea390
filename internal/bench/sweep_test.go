package bench

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// TestSweepRowsByIndex: concurrent rows come back in index order whatever
// order they finish in, and the lowest failing row's error wins.
func TestSweepRowsByIndex(t *testing.T) {
	got, err := sweepRows(9, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("row %d = %d, want %d", i, v, i*i)
		}
	}
	_, err = sweepRows(9, func(i int) (int, error) {
		if i == 3 || i == 7 {
			return 0, fmt.Errorf("row %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "row 3 failed" {
		t.Fatalf("err = %v, want row 3's", err)
	}
	if _, err := sweepRows(0, func(int) (int, error) { return 0, errors.New("called") }); err != nil {
		t.Fatalf("empty sweep: %v", err)
	}
}

// TestRoundsSweepMatchesSequential: a sweep whose rows run concurrently
// builds the table a one-row-at-a-time loop over the same configs builds.
func TestRoundsSweepMatchesSequential(t *testing.T) {
	rounds := []int{3, 1, 2}
	tab, err := roundsSweep(Options{Seed: 5}, K6_400(), 2, rounds, 2, "S", "sweep")
	if err != nil {
		t.Fatal(err)
	}
	want := &Table{}
	for _, r := range rounds {
		cfg := DefaultB2(K6_400())
		cfg.Threads, cfg.Rounds, cfg.Runs, cfg.Seed = 2, r, 2, 5
		res, err := RunBench2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arenas := 0
		for _, rr := range res.Runs {
			arenas = max(arenas, rr.ArenaCount)
		}
		want.AddRow(r, res.Faults.Min, res.Faults.Mean, res.Faults.Max, res.Predicted,
			fmt.Sprintf("%.0f%%", 100*res.Faults.RelSpread()), arenas)
	}
	if !reflect.DeepEqual(tab.Rows, want.Rows) {
		t.Fatalf("sweep rows %v, sequential rows %v", tab.Rows, want.Rows)
	}
}

// TestRunExperimentsInListOrder: experiments that finish in reverse order
// are emitted in list order, each with its own table or error.
func TestRunExperimentsInListOrder(t *testing.T) {
	var list []Experiment
	for i := 0; i < 6; i++ {
		i := i
		list = append(list, Experiment{ID: fmt.Sprint(i), Run: func(Options) (*Table, error) {
			time.Sleep(time.Duration(6-i) * time.Millisecond)
			if i%3 == 1 {
				return nil, fmt.Errorf("experiment %d failed", i)
			}
			return &Table{ID: fmt.Sprint(i)}, nil
		}})
	}
	var got []string
	RunExperiments(list, Options{}, func(e Experiment, out Outcome) {
		if out.Err != nil {
			got = append(got, e.ID+": "+out.Err.Error())
		} else {
			got = append(got, e.ID+": table "+out.Table.ID)
		}
	})
	want := []string{"0: table 0", "1: experiment 1 failed", "2: table 2", "3: table 3", "4: experiment 4 failed", "5: table 5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("emitted %q, want %q", got, want)
	}
}
