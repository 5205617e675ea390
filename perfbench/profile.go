package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// This file splits a runtime/pprof CPU profile by layer. It decodes the
// profile's protobuf encoding directly (only the standard library is
// available) and keeps just what attribution needs: samples, locations,
// functions and the string table.

var errTruncated = errors.New("profile: truncated protobuf")

// pb is a cursor over protobuf wire-format bytes.
type pb struct{ b []byte }

func (p *pb) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped and reported with
// neither.
func (p *pb) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if len(p.b) < n {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[n:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("profile: wire type %d", key&7)
	}
	return field, val, data, err
}

// ints appends a repeated integer field in either encoding: one varint, or
// a packed run when data is set.
func ints(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	p := pb{data}
	for len(p.b) > 0 {
		v, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// each walks the fields of one message.
func each(data []byte, fn func(field int, val uint64, data []byte) error) error {
	p := pb{data}
	for len(p.b) > 0 {
		f, v, d, err := p.next()
		if err != nil {
			return err
		}
		if err := fn(f, v, d); err != nil {
			return err
		}
	}
	return nil
}

type cpuProfile struct {
	valueIndex int // index of the "cpu" sample value
	samples    []profSample
	locFuncs   map[uint64][]uint64 // location id -> function ids, innermost first
	funcName   map[uint64]uint64   // function id -> string index
	strs       []string
}

type profSample struct {
	locs []uint64 // leaf first
	vals []uint64
}

func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{valueIndex: -1, locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	var sampleTypes []uint64 // string index of each value's type
	err = each(raw, func(f int, _ uint64, d []byte) error {
		switch f {
		case 1: // sample_type
			return each(d, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := each(d, func(f int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = ints(s.locs, v, d)
				case 2:
					s.vals, err = ints(s.vals, v, d)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := each(d, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return each(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := each(d, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(d))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range sampleTypes {
		if s < uint64(len(p.strs)) && p.strs[s] == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	return p, nil
}

// stack returns a sample's function names, innermost first.
func (p *cpuProfile) stack(s profSample) []string {
	var names []string
	for _, loc := range s.locs {
		for _, fn := range p.locFuncs[loc] {
			if i := p.funcName[fn]; i < uint64(len(p.strs)) {
				names = append(names, p.strs[i])
			}
		}
	}
	return names
}

// gcFrames mark collector work. A sample with one of them on its stack is
// charged to runtime_gc even below a layer frame: a GC assist does the
// collector's work, whichever layer's allocation triggered it.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMark", "runtime.gcSweep", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.ReadMemStats",
}

// layerOf charges one stack to a host layer: runtime_gc for collector
// work; otherwise the innermost frame of a layer package, where the
// benchmark's own package counts as bench and internal packages that are not
// layers (xrand, stats, telemetry) defer to their caller; otherwise
// runtime_sched, the goroutine switching and idle time left over.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "runtime_gc"
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
		rest, ok := strings.CutPrefix(fn, "mtmalloc/internal/")
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range hostLayers {
			if l == rest {
				return l
			}
		}
	}
	return "runtime_sched"
}

// layerSeconds returns the profile's CPU seconds per host layer; every
// layer is present, zero when no sample landed in it. The benchmark's speed
// probe belongs to no layer and is left out.
func layerSeconds(gz []byte) (map[string]float64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range hostLayers {
		out[l] = 0
	}
	for _, s := range p.samples {
		stack := p.stack(s)
		if p.valueIndex >= len(s.vals) || slices.Contains(stack, "main.probe") {
			continue
		}
		out[layerOf(stack)] += float64(s.vals[p.valueIndex]) / 1e9
	}
	return out, nil
}
