package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mtmalloc/internal/cache"
	"mtmalloc/internal/heap"
	"mtmalloc/internal/malloc"
	"mtmalloc/internal/sim"
	"mtmalloc/internal/vm"
	"mtmalloc/internal/xrand"
)

func newAlloc(t *testing.T, body func(th *sim.Thread, al malloc.Allocator)) {
	t.Helper()
	m := sim.NewMachine(sim.Config{CPUs: 1, ClockMHz: 100, Seed: 1})
	c := cache.NewModel(1, cache.DefaultCosts())
	as := vm.New(1, m, c)
	err := m.Run(func(th *sim.Thread) {
		al, err := malloc.NewPTMalloc(th, as, heap.DefaultParams(), malloc.DefaultCostParams())
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		body(th, al)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := []Op{
		{Kind: OpAlloc, Thread: 0, Slot: 0, Size: 40},
		{Kind: OpAlloc, Thread: 1, Slot: 1, Size: 8192},
		{Kind: OpFree, Thread: 1, Slot: 0},
		{Kind: OpAlloc, Thread: 0, Slot: 0, Size: 1 << 20},
		{Kind: OpFree, Thread: 0, Slot: 1},
	}
	for _, op := range in {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(in) {
		t.Fatalf("Count = %d", w.Count())
	}
	out, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d ops, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("op %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	_, err := NewReader(bytes.NewBufferString("not a trace at all")).ReadAll()
	if err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReaderEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ops, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 {
		t.Fatalf("got %d ops from empty trace", len(ops))
	}
}

func TestReaderTruncated(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(Op{Kind: OpAlloc, Slot: 1, Size: 100})
	w.Flush()
	whole := buf.Bytes()
	trunc := whole[:len(whole)-1]
	_, err := NewReader(bytes.NewReader(trunc)).ReadAll()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated trace not rejected: %v", err)
	}
}

func TestRecordThenReplay(t *testing.T) {
	var buf bytes.Buffer
	allocs := 0
	// Record a randomized workload.
	newAlloc(t, func(th *sim.Thread, al malloc.Allocator) {
		rec := NewRecorder(al, &buf)
		r := xrand.New(5, 5)
		var live []uint64
		for i := 0; i < 2000; i++ {
			if len(live) == 0 || r.Intn(3) > 0 {
				p, err := rec.Malloc(th, uint32(1+r.Intn(900)))
				if err != nil {
					t.Errorf("Malloc: %v", err)
					return
				}
				live = append(live, p)
				allocs++
			} else {
				k := r.Intn(len(live))
				if err := rec.Free(th, live[k]); err != nil {
					t.Errorf("Free: %v", err)
					return
				}
				live = append(live[:k], live[k+1:]...)
			}
		}
		for _, p := range live {
			if err := rec.Free(th, p); err != nil {
				t.Errorf("drain: %v", err)
				return
			}
		}
		if err := rec.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})

	ops, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2*allocs {
		t.Fatalf("trace has %d ops, want %d (every alloc freed)", len(ops), 2*allocs)
	}

	// Replay against a fresh allocator; structure must hold throughout.
	newAlloc(t, func(th *sim.Thread, al malloc.Allocator) {
		if err := Replay(th, al, ops); err != nil {
			t.Errorf("Replay: %v", err)
			return
		}
		if err := al.Check(); err != nil {
			t.Errorf("Check after replay: %v", err)
		}
		st := al.Stats()
		if int(st.Heap.Mallocs) != allocs || int(st.Heap.Frees) != allocs {
			t.Errorf("replay did %d/%d ops, want %d each", st.Heap.Mallocs, st.Heap.Frees, allocs)
		}
	})
}

func TestReplayRejectsBadTrace(t *testing.T) {
	newAlloc(t, func(th *sim.Thread, al malloc.Allocator) {
		err := Replay(th, al, []Op{{Kind: OpFree, Slot: 7}})
		if err == nil {
			t.Error("free of empty slot accepted")
		}
	})
}

func TestRecorderRejectsForeignFree(t *testing.T) {
	newAlloc(t, func(th *sim.Thread, al malloc.Allocator) {
		rec := NewRecorder(al, io.Discard)
		if err := rec.Free(th, 0xdeadbeef); err == nil {
			t.Error("free of unrecorded address accepted")
		}
	})
}

func TestSlotReuse(t *testing.T) {
	var buf bytes.Buffer
	newAlloc(t, func(th *sim.Thread, al malloc.Allocator) {
		rec := NewRecorder(al, &buf)
		p1, _ := rec.Malloc(th, 64)
		rec.Free(th, p1)
		p2, _ := rec.Malloc(th, 64) // must reuse slot 0
		rec.Free(th, p2)
		rec.Close()
	})
	ops, err := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if ops[2].Slot != ops[0].Slot {
		t.Fatalf("slot not reused: %+v", ops)
	}
}
