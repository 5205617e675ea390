package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// boundary is a layer the benchmark calls into.
type boundary int

const (
	layerMalloc boundary = iota
	layerVM
	layerSim
	numBoundaries
)

var boundaryNames = [numBoundaries]string{"malloc", "vm", "sim"}

// spanEvery keeps one call span in this many per boundary: the aggregate
// counts every call, the trace file shows a sample.
const spanEvery = 4096

// tracer records host-time spans from the benchmark's own files: set-up and the
// timed phase of each design, and the benchmark's calls into malloc, vm and
// sim. Spans stay in memory until write. A nil tracer records nothing and
// never reads the clock.
//
// A call that yields inside the simulator lets other simulated threads run
// before it returns, so its host duration covers their work too. The tracer
// notices (another call began meanwhile) and keeps such calls out of the
// per-call times and the trace file.
type tracer struct {
	origin time.Time
	events []traceEvent
	nextID int
	parent int    // the open timed span, 0 when none
	seq    uint64 // benchmark calls begun so far
	calls  [numBoundaries]struct {
		n, clean uint64
		ns       time.Duration // over clean calls
	}
}

// mark is the start of one benchmark call.
type mark struct {
	at  time.Time
	seq uint64
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin starts one benchmark call.
func (tr *tracer) begin() mark {
	if tr == nil {
		return mark{}
	}
	tr.seq++
	return mark{time.Now(), tr.seq}
}

func (tr *tracer) record(id int, name, cat string, parent int, start time.Time, d time.Duration) {
	tr.events = append(tr.events, traceEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts:  float64(start.Sub(tr.origin).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: 1, Tid: 1,
		Args: map[string]int{"id": id, "parent": parent},
	})
}

// call closes one benchmark call into boundary b.
func (tr *tracer) call(b boundary, start mark) {
	if tr == nil {
		return
	}
	d := time.Since(start.at)
	c := &tr.calls[b]
	c.n++
	if tr.seq != start.seq {
		return
	}
	c.clean++
	c.ns += d
	if c.clean%spanEvery == 1 {
		tr.nextID++
		tr.record(tr.nextID, boundaryNames[b], "call", tr.parent, start.at, d)
	}
}

// span records a completed span from start to now.
func (tr *tracer) span(name, cat string, parent int, start time.Time) {
	if tr == nil {
		return
	}
	tr.nextID++
	tr.record(tr.nextID, name, cat, parent, start, time.Since(start))
}

// open reserves the id of a span that later calls nest under.
func (tr *tracer) open() int {
	if tr == nil {
		return 0
	}
	tr.nextID++
	tr.parent = tr.nextID
	return tr.nextID
}

// close completes the span open returned.
func (tr *tracer) close(id int, name, cat string, start time.Time) {
	if tr == nil {
		return
	}
	tr.record(id, name, cat, 0, start, time.Since(start))
	tr.parent = 0
}

// summary describes the boundary aggregates, one line per boundary.
func (tr *tracer) summary() []string {
	var out []string
	for b, c := range tr.calls {
		if c.n == 0 {
			continue
		}
		line := fmt.Sprintf("benchmark calls into %s: %d, %d not interleaved with another thread", boundaryNames[b], c.n, c.clean)
		if c.clean > 0 {
			line += fmt.Sprintf(", %.0f ns each on the host", float64(c.ns.Nanoseconds())/float64(c.clean))
		}
		out = append(out, line)
	}
	return out
}

// write saves the spans as a Chrome trace-event file.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": tr.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
