package xrand

import "testing"

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams look correlated: %d/1000 equal draws", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds look correlated: %d/1000 equal draws", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3, 3)
	for _, n := range []int{1, 2, 3, 7, 8, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(0, 0).Intn(0)
}

func TestInt63nBounds(t *testing.T) {
	r := New(9, 9)
	for _, n := range []int64{1, 5, 1 << 40} {
		for i := 0; i < 100; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11, 0)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnRoughUniformity(t *testing.T) {
	r := New(123, 456)
	const n, draws = 10, 100000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		buckets[r.Intn(n)]++
	}
	want := draws / n
	for i, got := range buckets {
		if got < want*9/10 || got > want*11/10 {
			t.Fatalf("bucket %d has %d draws, want about %d", i, got, want)
		}
	}
}

func TestJitter(t *testing.T) {
	r := New(5, 5)
	if r.Jitter(0) != 0 {
		t.Fatal("Jitter(0) must be 0")
	}
	if r.Jitter(-3) != 0 {
		t.Fatal("Jitter(negative) must be 0")
	}
	for i := 0; i < 100; i++ {
		v := r.Jitter(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Jitter(10) = %d out of range", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(10000)
	}
}
