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

// layers are the per-layer CPU buckets, named after the repository's
// modules. Every profile sample counts toward exactly one of them.
var layers = []string{
	"cluster", "interference", "rngx", "simkernel", "pfs", "core", "mpisim",
	"bp", "iostack", "scenario", "runtime", "other",
}

// layerPackages maps package paths to layers. A path matches an entry when
// it equals it or continues it with "/"; anything unmatched is "other"
// (fmt, math, sort, the benchmark itself, ...).
var layerPackages = []struct{ pkg, layer string }{
	{"repro/cluster", "cluster"},
	{"repro/internal/machines", "cluster"},
	{"repro/internal/interference", "interference"},
	{"repro/internal/rngx", "rngx"},
	{"repro/internal/simkernel", "simkernel"},
	{"repro/internal/pfs", "pfs"},
	{"repro/internal/core", "core"},
	{"repro/internal/mpisim", "mpisim"},
	{"repro/internal/bp", "bp"},
	{"repro/adios", "iostack"},
	{"repro/internal/iomethod", "iostack"},
	{"repro/internal/transports", "iostack"},
	{"repro/internal/ior", "iostack"},
	{"repro/internal/workloads", "iostack"},
	{"repro/internal/scenario", "scenario"},
	{"repro/internal/runner", "scenario"},
	{"repro/internal/experiments", "scenario"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// layerOf returns the layer of a package path.
func layerOf(pkg string) string {
	for _, e := range layerPackages {
		if pkg == e.pkg || strings.HasPrefix(pkg, e.pkg+"/") {
			return e.layer
		}
	}
	return "other"
}

// funcPackage extracts the package path from a symbol name as the
// profile records it, e.g. "repro/internal/pfs.(*OST).recompute" →
// "repro/internal/pfs". Type arguments are dropped first, since they may
// contain package paths of their own; compiler-generated equality and
// hash functions count toward the package of their type.
func funcPackage(name string) string {
	for _, p := range []string{"type:.eq.", "type:.hash."} {
		name = strings.TrimPrefix(name, p)
	}
	var b strings.Builder
	depth := 0
	for _, r := range name {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name = b.String()
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// layerShares decodes a gzip-compressed pprof CPU profile and attributes
// each sample's CPU time to the layer of its leaf frame (the innermost
// function, after inlining). It returns the share of each layer, which sum
// to 1, and the number of profiling ticks behind them.
func layerShares(profile []byte) (map[string]float64, int, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	vi := p.sampleTypes - 1 // CPU profiles carry [samples/count, cpu/nanoseconds]
	if vi < 0 {
		return nil, 0, errors.New("profile has no sample types")
	}
	byLayer := map[string]float64{}
	var total float64
	n := 0
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		layer := "other"
		if len(s.locations) > 0 {
			if loc, ok := p.locations[s.locations[0]]; ok && len(loc) > 0 {
				layer = layerOf(funcPackage(p.strings[p.functions[loc[0]]]))
			}
		}
		v := float64(s.values[vi])
		byLayer[layer] += v
		total += v
		n += int(s.values[0])
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = byLayer[l] / total
		}
	}
	return shares, n, nil
}

// profileData is the part of a pprof profile the attribution needs.
type profileData struct {
	sampleTypes int
	samples     []profSample
	locations   map[uint64][]uint64 // location id → function ids, leaf first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// parseProfile decodes the protobuf fields of profile.proto that
// layerShares reads; all others are skipped.
func parseProfile(gz []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("profile: function name out of the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
