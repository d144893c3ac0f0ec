package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuClasses are the layers CPU samples are attributed to, by the
// package of the innermost frame.
var cpuClasses = []string{"abslock", "gatekeeper", "adt", "engine", "core", "gc", "sync", "maps", "other"}

// cpuShares counts CPU-profile samples per layer.
type cpuShares struct {
	counts map[string]int64
	total  int64
}

func (c *cpuShares) share(class string) float64 {
	return ratio(float64(c.counts[class]), float64(c.total))
}

// add attributes the samples of one gzipped pprof CPU profile.
func (c *cpuShares) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	if c.counts == nil {
		c.counts = map[string]int64{}
	}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		class := classify(stack)
		c.counts[class] += s.count
		c.total += s.count
	}
	return nil
}

// classify names the layer of one sample, given its frames innermost
// first. Garbage-collector work is recognised anywhere on the stack;
// everything else by the innermost frame's package.
func classify(stack []string) string {
	for _, fn := range stack {
		for _, gc := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"} {
			if fn == gc || strings.HasPrefix(fn, gc+".") {
				return "gc"
			}
		}
	}
	if len(stack) == 0 {
		return "other"
	}
	fn := stack[0]
	switch {
	case strings.HasPrefix(fn, "commlat/internal/abslock."):
		return "abslock"
	case strings.HasPrefix(fn, "commlat/internal/gatekeeper."):
		return "gatekeeper"
	case strings.HasPrefix(fn, "commlat/internal/adt/"):
		return "adt"
	case strings.HasPrefix(fn, "commlat/internal/engine."):
		return "engine"
	case strings.HasPrefix(fn, "commlat/internal/core."):
		return "core"
	case strings.HasPrefix(fn, "sync."), strings.HasPrefix(fn, "sync/atomic."), strings.HasPrefix(fn, "internal/sync."):
		return "sync"
	case strings.HasPrefix(fn, "runtime.map"), strings.HasPrefix(fn, "internal/runtime/maps."):
		return "maps"
	}
	return "other"
}

// profile is the part of a decoded pprof profile the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id → function names, innermost inlined first
}

type sample struct {
	locs  []uint64 // innermost first
	count int64
}

// parseProfile decodes the fields of a pprof profile.proto message that
// the attribution needs: samples, locations, functions and strings.
func parseProfile(b []byte) (*profile, error) {
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id → function ids
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var values []int64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					ids, err := packed(v, m)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vs, err := packed(v, m)
					for _, x := range vs {
						values = append(values, int64(x))
					}
					return err
				}
				return nil
			})
			if len(values) > 0 {
				s.count = values[0]
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locs {
		for _, f := range fns {
			name := ""
			if i := funcs[f]; i >= 0 && int(i) < len(strs) {
				name = strs[i]
			}
			p.locFuncs[id] = append(p.locFuncs[id], name)
		}
	}
	return p, nil
}

var errProto = errors.New("cpu profile: malformed protobuf")

// eachField calls fn for each field of the protobuf message b: v holds a
// varint or fixed value, msg the bytes of a length-delimited one.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// packed returns the values of a repeated varint field, which the
// encoder may write packed (msg set) or one value per field (v).
func packed(v uint64, msg []byte) ([]uint64, error) {
	if msg == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		msg = msg[n:]
	}
	return out, nil
}
