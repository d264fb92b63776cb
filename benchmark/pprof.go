package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzip-compressed protocol-buffer
// message (github.com/google/pprof/proto/profile.proto). The runner needs
// only the call stacks and their sample counts, so it decodes the five
// message types involved by hand instead of depending on a profile
// library.

// stackSample is one profile sample: its call stack as function names,
// leaf first, and how many times the profiler saw it.
type stackSample struct {
	stack []string
	count int64
}

var errProfile = errors.New("benchmark: malformed profile")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

func uvarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbFields walks one message, calling fn for every field. Fixed-width
// fields are skipped: profile.proto has none the runner reads.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := uvarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, rest, err = uvarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProfile
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = uvarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errProfile
			}
			f.b, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProfile
			}
			rest = rest[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbRepeated appends a repeated integer field, packed or not.
func pbRepeated(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	for b := f.b; len(b) > 0; {
		v, rest, err := uvarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// decodeProfile reads a gzip-compressed profile and returns its samples.
// The count of a sample is its first value, which for a Go CPU profile is
// the number of profiler ticks.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("benchmark: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("benchmark: profile: %w", err)
	}
	return decodeProfileProto(raw)
}

func decodeProfileProto(raw []byte) ([]stackSample, error) {
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, leaf first
		funcName = map[uint64]uint64{}   // function id → string-table index
		strs     []string
	)
	err := pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := pbFields(f.b, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbRepeated(s.locs, g)
				case 2:
					vals, err = pbRepeated(vals, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line; inlined callees come before their caller
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, errProfile
				}
				ss.stack = append(ss.stack, strs[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// shareLayers are the buckets of cpu_share.*; every sample's leaf function
// falls in exactly one. inclLayers are the packages cpu_incl.* reports.
var (
	shareLayers = []string{"gdp", "isa", "obj", "mem", "port", "process", "pm", "sro", "gc", "mm", "domain",
		"scenario", "cluster", "filing", "trace", "ledger", "vtime", "go-runtime", "other"}
	inclLayers = []string{"port", "obj", "mem", "sro", "gc", "mm", "scenario", "cluster", "filing", "ledger"}
)

// layerOf maps a function name such as
// "repro/internal/obj.(*Table).ReadDWord" to its layer. The simulator's
// packages are layers by name; the Go runtime and the packages it is made
// of are "go-runtime"; anything else (the rest of the standard library,
// the runner itself) is "other".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may hold package paths of their own
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range shareLayers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/"),
		pkg == "sync", pkg == "sync/atomic":
		return "go-runtime"
	}
	return "other"
}

// attribute turns samples into the family-A metrics: cpu_share.L is the
// fraction of samples whose leaf function is in L (the shares sum to 1),
// and cpu_incl.L the fraction with any frame in L (each sample counted
// once per layer, so these overlap). It also returns the sample total.
func attribute(samples []stackSample) (map[string]float64, int64) {
	self := map[string]int64{}
	incl := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.count <= 0 {
			continue
		}
		total += s.count
		self[layerOf(s.stack[0])] += s.count
		seen := map[string]bool{}
		for _, fn := range s.stack {
			if l := layerOf(fn); !seen[l] {
				seen[l] = true
				incl[l] += s.count
			}
		}
	}
	m := map[string]float64{}
	for _, l := range shareLayers {
		m["cpu_share."+l] = ratio(float64(self[l]), float64(total))
	}
	for _, l := range inclLayers {
		m["cpu_incl."+l] = ratio(float64(incl[l]), float64(total))
	}
	return m, total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
