package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// Layer attribution of CPU profiles. A sample is charged to the layer of the
// nearest frame (leaf first, inlined frames innermost first) that belongs to
// a themis/internal package, so runtime map, malloc and write-barrier frames
// go to the simulator code that called them. Samples with no such frame —
// GC workers, the scheduler, the profiler itself — go to goLayer.

const (
	internalPrefix = "themis/internal/"
	goLayer        = "go"
)

// packageLayers maps every themis/internal package to its layer. internal/sim
// splits by file in layerOf. The observability and statistics packages only
// run inside the harness, so they count as the workload layer; memmodel is
// the §4 sizing model behind core's flow-table budget; lint never runs inside
// a trial. The benchmark's tests fail when a package is missing here.
var packageLayers = map[string]string{
	"sim":        "sim",
	"fabric":     "fabric",
	"topo":       "topo",
	"lb":         "lb",
	"packet":     "packet",
	"rnic":       "rnic",
	"cc":         "cc",
	"core":       "core",
	"memmodel":   "core",
	"route":      "route",
	"workload":   "workload",
	"collective": "workload",
	"chaos":      "workload",
	"exp":        "workload",
	"obs":        "workload",
	"trace":      "workload",
	"stats":      "workload",
	"lint":       "workload",
}

// layers lists the attribution targets in report order; each reports
// <layer>.self_s, except goLayer, which reports go.gc_s.
var layers = []string{
	"sim.wheel", "sim.shard", "fabric", "topo", "lb", "packet", "rnic", "cc",
	"core", "route", "workload", goLayer,
}

// layerOf returns the layer of a function given its pprof name and source
// file, or false when the function is not simulator code. The scheduler
// split follows the files of internal/sim: shard.go holds the epoch barrier
// and the cross-shard mailboxes, everything else is the event queue.
func layerOf(fn, file string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	layer, ok := packageLayers[pkg]
	if !ok {
		return "", false
	}
	if layer == "sim" {
		if path.Base(file) == "shard.go" {
			return "sim.shard", true
		}
		return "sim.wheel", true
	}
	return layer, true
}

// selfTimes decodes a gzipped pprof CPU profile and returns the CPU
// nanoseconds charged to each layer, and the profile's total.
func selfTimes(gz []byte) (byLayer map[string]int64, total int64, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	cpu := -1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, 0, errors.New("profile has no cpu sample type")
	}
	byLayer = make(map[string]int64, len(layers))
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			return nil, 0, errors.New("profile sample lacks a cpu value")
		}
		byLayer[p.sampleLayer(s.locs)] += s.values[cpu]
		total += s.values[cpu]
	}
	return byLayer, total, nil
}

func (p *profile) sampleLayer(locs []uint64) string {
	for _, id := range locs {
		for _, fid := range p.locations[id] {
			f := p.functions[fid]
			if layer, ok := layerOf(p.str(f.name), p.str(f.file)); ok {
				return layer
			}
		}
	}
	return goLayer
}

// profile is the subset of the pprof protobuf (profile.proto) attribution
// needs. Strings are indices into the string table.
type profile struct {
	sampleTypes []int64
	samples     []sample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]function
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case profSampleType:
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == valueTypeType {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case profSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var f function
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					f.name = int64(v)
				case functionFilename:
					f.file = int64(v)
				}
				return nil
			})
			p.functions[id] = f
			return err
		case profStringTable:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes (b is nil for
// scalar fields). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := readVarint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := readVarint(msg)
			if n == 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("truncated fixed field")
			}
			msg = msg[w:]
		case 2:
			l, n := readVarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field, packed (b non-nil) or not.
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := readVarint(b)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func readVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
