package main

import (
	"strings"
	"testing"
)

// TestCheckCounts: each count flag below 1 is refused by name, and the
// smallest valid values pass.
func TestCheckCounts(t *testing.T) {
	if err := checkCounts(1, 1, 1, 1); err != nil {
		t.Errorf("all counts at 1 were refused: %v", err)
	}
	cases := []struct {
		flag                         string
		seeds, threads, ops, maxSize int
	}{
		{"-seeds", 0, 4, 20000, 4000},
		{"-threads", 5, 0, 20000, 4000},
		{"-ops", 5, 4, 0, 4000},
		{"-maxsize", 5, 4, 20000, 0},
		{"-ops", 5, 4, -3, 4000},
	}
	for _, c := range cases {
		err := checkCounts(c.seeds, c.threads, c.ops, c.maxSize)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("checkCounts(%d, %d, %d, %d) = %v, want an error naming %s",
				c.seeds, c.threads, c.ops, c.maxSize, err, c.flag)
		}
	}
}
