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

// Self-time layers: the repository's internal/<module> packages, the Go
// runtime, and everything else (the benchmark itself, unused modules).
const (
	layerRuntime = "goruntime"
	layerOther   = "other"
)

// profiledLayers are the layers whose self share the traced run reports.
// Samples in any other internal module count toward layerOther, so the
// shares always sum to 1.
var profiledLayers = []string{
	"sim", "fabric", "core", "rocev2", "bitmap", "transport", "cc", "packet",
	"verbs", "kv", "fault", "metrics", "workload", "topo", "exp",
	layerRuntime, layerOther,
}

const internalPrefix = "github.com/irnsim/irn/internal/"

// layerOf attributes one sample, given its stack's function names from
// leaf to root: a runtime leaf goes to the Go runtime, anything else to
// the innermost internal/<module> frame, and the rest to layerOther.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return layerOther
	}
	if isRuntime(stack[0]) {
		return layerRuntime
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, l := range profiledLayers {
				if l == mod {
					return l
				}
			}
			return layerOther
		}
	}
	return layerOther
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// layerProfile accumulates sampled CPU nanoseconds per layer.
type layerProfile struct {
	ns        map[string]int64
	samples   int64
	unlabeled int64 // ns in samples outside any scenario's pprof label
}

func newLayerProfile() *layerProfile { return &layerProfile{ns: map[string]int64{}} }

func (p *layerProfile) total() int64 {
	var t int64
	for _, v := range p.ns {
		t += v
	}
	return t
}

// shares returns each profiled layer's share of sampled CPU time.
func (p *layerProfile) shares() map[string]float64 {
	out := make(map[string]float64, len(profiledLayers))
	t := p.total()
	for _, l := range profiledLayers {
		if t > 0 {
			out[l] = float64(p.ns[l]) / float64(t)
		} else {
			out[l] = 0
		}
	}
	return out
}

// add folds a gzipped pprof CPU profile into p, attributing each sample
// with layerOf.
func (p *layerProfile) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cpu := -1
	for i, st := range prof.sampleTypes {
		if prof.str(st) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return errors.New("cpu profile: no cpu sample type")
	}
	var stack []string
	for _, s := range prof.samples {
		if cpu >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				stack = append(stack, prof.str(prof.funcNames[fn]))
			}
		}
		v := s.values[cpu]
		p.ns[layerOf(stack)] += v
		p.samples++
		if !s.labeled {
			p.unlabeled += v
		}
	}
	return nil
}

// profile is the subset of a pprof profile.proto message layer
// attribution reads.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locFuncs    map[uint64][]uint64 // location → function IDs, innermost first
	funcNames   map[uint64]int64    // function → string-table index of its name
	strings     []string
}

type profSample struct {
	locs    []uint64 // leaf first
	values  []int64
	labeled bool
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of profile.proto layer attribution
// needs: sample_type (1), sample (2), location (4), function (5) and
// string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return eachField(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2:
			var s profSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return eachPacked(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					s.labeled = true
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint/fixed value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked yields a repeated varint field's values, whether it arrived
// as one unpacked value (data nil) or a packed run.
func eachPacked(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
