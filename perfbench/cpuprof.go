package main

// This file turns a runtime/pprof CPU profile into per-module shares. The
// profile is a gzipped protocol buffer (github.com/google/pprof's
// profile.proto); only the handful of fields needed to walk each sample's
// stack are decoded, with a minimal wire-format reader, so the benchmark
// needs nothing outside the standard library.
//
// Charging rule, per sample:
//   - a stack that contains a garbage-collector entry point is cpu.gc;
//   - otherwise the innermost frame of a flexran/internal/<module> package
//     is charged: cpu.<module>, or cpu.other for a module not listed in
//     cpuModules;
//   - otherwise the innermost frame of the root flexran package (the
//     wall-clock loops) is cpu.flexran, and of the benchmark itself is
//     cpu.bench;
//   - anything left (scheduler, syscalls, standard-library-only goroutines
//     such as net/http's connection readers) is cpu.runtime.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// gcRoots are runtime functions whose presence on a stack marks the sample
// as garbage-collection work (background marking, mutator assists,
// sweeping, scavenging).
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.sweepone",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

type pbLocation struct{ funcs []uint64 } // function ids, innermost first
type pbSample struct {
	locs []uint64 // leaf first
	vals []uint64
}

type pbProfile struct {
	sampleTypes [][2]int64 // (type, unit) string indexes
	samples     []pbSample
	valueIdx    int // the sample value to weight by
	locations   map[uint64]pbLocation
	funcNames   map[uint64]int64 // function id -> name string index
	strs        []string
}

// pbReader walks one protocol-buffer message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errors.New("bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

// next returns the next field's number and wire type, plus its payload:
// the value for varints, the bytes for length-delimited fields.
func (r *pbReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		v, r.b = uint64(binary.LittleEndian.Uint32(r.b)), r.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wire int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func parseProfile(gz []byte) (*pbProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &pbProfile{locations: map[uint64]pbLocation{}, funcNames: map[uint64]int64{}}
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, wire, _, data, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		switch {
		case field == 1 && wire == 2: // sample_type
			var vt [2]int64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, vt)
		case field == 2 && wire == 2: // sample
			var locs, vals []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, w, v, d, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				switch f {
				case 1:
					locs, err = uints(w, v, d, locs)
				case 2:
					vals, err = uints(w, v, d, vals)
				}
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
			}
			p.samples = append(p.samples, pbSample{locs: locs, vals: vals})
		case field == 4 && wire == 2: // location
			var id uint64
			var loc pbLocation
			m := pbReader{data}
			for len(m.b) > 0 {
				f, _, v, d, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, fmt.Errorf("cpu profile: %w", err)
						}
						if lf == 1 {
							loc.funcs = append(loc.funcs, lv)
						}
					}
				}
			}
			p.locations[id] = loc
		case field == 5 && wire == 2: // function
			var id uint64
			var name int64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, fmt.Errorf("cpu profile: %w", err)
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcNames[id] = name
		case field == 6 && wire == 2: // string_table
			p.strs = append(p.strs, string(data))
		}
	}
	// Weight samples by CPU time when the profile carries it, else by the
	// last value (the sample count in a one-value profile).
	p.valueIdx = len(p.sampleTypes) - 1
	for i, vt := range p.sampleTypes {
		if vt[0] >= 0 && int(vt[0]) < len(p.strs) && p.strs[vt[0]] == "cpu" {
			p.valueIdx = i
		}
	}
	return p, nil
}

// stack returns a sample's function names, innermost first.
func (p *pbProfile) stack(s pbSample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fn := range p.locations[id].funcs {
			if idx := p.funcNames[fn]; idx >= 0 && int(idx) < len(p.strs) {
				out = append(out, p.strs[idx])
			}
		}
	}
	return out
}

// chargeModule applies the charging rule to one stack (innermost first).
func chargeModule(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "flexran/internal/"); ok {
			mod := rest[:strings.IndexAny(rest+".", "./")]
			for _, m := range cpuModules {
				if m == mod {
					return mod
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "flexran."):
			return "flexran"
		case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "flexran/perfbench."):
			return "bench" // the command, or its test binary
		}
	}
	return "runtime"
}

// cpuShares charges every sample of the gzipped CPU profiles and returns
// each bucket's percentage of their total: every bucket of cpuModules is
// present, and the shares sum to 100 when there are samples.
func cpuShares(profiles ...[]byte) (map[string]float64, error) {
	by := map[string]int64{}
	var total int64
	for _, gz := range profiles {
		p, err := parseProfile(gz)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			if p.valueIdx < 0 || p.valueIdx >= len(s.vals) {
				continue
			}
			v := int64(s.vals[p.valueIdx])
			by[chargeModule(p.stack(s))] += v
			total += v
		}
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = 0
		if total > 0 {
			shares[m] = 100 * float64(by[m]) / float64(total)
		}
	}
	return shares, nil
}
