package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// layers are the names layerCPU charges samples to, in report order.
var layers = []string{
	"vtime", "numa", "mempage", "heap",
	"core.sched", "core.gc", "core.chan", "core.fault",
	"workload", "bench", "goruntime", "other",
}

// coreGroups splits package core by file.
var coreGroups = map[string]string{
	"sched.go": "core.sched", "vproc.go": "core.sched", "runtime.go": "core.sched", "config.go": "core.sched",
	"minor.go": "core.gc", "major.go": "core.gc", "promote.go": "core.gc", "global.go": "core.gc",
	"concurrent.go": "core.gc", "stepscan.go": "core.gc", "mutref.go": "core.gc", "batch.go": "core.gc",
	"verify.go": "core.gc", "events.go": "core.gc",
	"channel.go": "core.chan", "proxy.go": "core.chan", "timer.go": "core.chan",
	"faults.go": "core.fault", "crash.go": "core.fault", "memlimit.go": "core.fault",
}

// layerOf names the layer of a function in the repository's internal
// packages; ok is false for any other function. A package or core file
// the tables do not name is "other".
func layerOf(fn, file string) (layer string, ok bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	pkg, _, _ := strings.Cut(fn[len(prefix):], ".")
	switch pkg {
	case "vtime", "numa", "mempage", "heap", "workload", "bench":
		return pkg, true
	case "core":
		if g, ok := coreGroups[path.Base(file)]; ok {
			return g, true
		}
	}
	return "other", true
}

// layerCPU reads a CPU profile written by runtime/pprof and returns the
// CPU nanoseconds charged to each layer. A sample is charged to the layer
// of the innermost repository frame on its stack, so Go runtime frames
// count toward the layer that called them; a sample with no repository
// frame (host GC workers, the Go scheduler, the benchmark's own loop) is
// charged to goruntime.
func layerCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if t < uint64(len(p.strings)) && p.strings[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample type")
	}
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		out[p.layerOfStack(s.locations)] += int64(s.values[cpu])
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) layerCPU reads.
type profile struct {
	sampleTypes []uint64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64][2]uint64
	strings     []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []uint64
}

func (p *profile) layerOfStack(locs []uint64) string {
	for _, loc := range locs {
		for _, id := range p.locations[loc] {
			f := p.functions[id]
			if layer, ok := layerOf(p.str(f[0]), p.str(f[1])); ok {
				return layer
			}
		}
	}
	return "goruntime"
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("malformed profile")

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64][2]uint64{}}
	err := fields(raw, func(num, typ int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			var t uint64
			err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					t = v
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, t)
			return err
		case 2: // sample: location_id = 1, value = 2
			var s sample
			err := fields(data, func(n, typ int, v uint64, data []byte) error {
				var err error
				switch n {
				case 1:
					s.locations, err = uints(s.locations, typ, v, data)
				case 2:
					s.values, err = uints(s.values, typ, v, data)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id = 1, line = 4 (Line{function_id = 1})
			var id uint64
			var fns []uint64
			err := fields(data, func(n, _ int, v uint64, data []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(data, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id = 1, name = 2, filename = 4
			var id uint64
			var f [2]uint64
			err := fields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f[0] = v
				case 4:
					f[1] = v
				}
				return nil
			})
			p.functions[id] = f
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// fields calls fn for each field of a protobuf message: v carries a
// varint or fixed-width value, data a length-delimited payload.
func fields(msg []byte, fn func(num, typ int, v uint64, data []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errProto
			}
			data, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, typ)
		}
		if err := fn(num, typ, v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field's values, packed or not.
func uints(dst []uint64, typ int, v uint64, data []byte) ([]uint64, error) {
	if typ != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
