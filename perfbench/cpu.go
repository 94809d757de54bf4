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

// cpuModules are the modules CPU samples are attributed to, by the
// package of each sample's leaf frame. Repository packages not listed
// count as "other", the benchmark's own package as "perfbench", the Go
// runtime (scheduler, GC, memory management) as "runtime" and the rest
// of the standard library as "stdlib".
var cpuModules = []string{
	"gen", "routing", "traffic", "runner", "nexit", "baseline", "optimal", "simplex",
	"nexitwire", "agentd", "continuous", "snapshot", "pairsim", "experiments",
	"topology", "metrics", "capacity", "flowid", "credits", "telemetry",
	"perfbench", "runtime", "stdlib", "other",
}

// moduleOf maps a pprof function name such as
// "repro/internal/nexit.(*negotiation).scan" to its module.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations name packages inside [...]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, m := range cpuModules {
			if m == name {
				return m
			}
		}
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// module's share of the samples, keyed by module.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		mod := "runtime" // unsymbolized leaf
		if fn, ok := p.leafFunc[s.locs[0]]; ok {
			if name, ok := p.funcName[fn]; ok && name < uint64(len(p.strings)) {
				mod = moduleOf(p.strings[name])
			}
		}
		shares[mod] += float64(s.values[0])
		total += float64(s.values[0])
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= total
		}
	}
	return shares, nil
}

// profile is the subset of profile.proto a leaf-frame attribution
// needs: samples (location ids, leaf first; values), each location's
// innermost function, function names and the string table.
type profile struct {
	samples  []sample
	leafFunc map[uint64]uint64 // location id -> innermost function id
	funcName map[uint64]uint64 // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunc: map[uint64]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, msg []byte) error {
		switch {
		case num == 2 && wire == 2: // Sample
			var s sample
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case num == 4 && wire == 2: // Location
			var id, fn uint64
			haveLine := false
			err := eachField(msg, func(num, wire int, v uint64, sub []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2 && !haveLine: // first Line is the innermost
					haveLine = true
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if haveLine {
				p.leafFunc[id] = fn
			}
			return err
		case num == 5 && wire == 2: // Function
			var id, name uint64
			err := eachField(msg, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, packed []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as msg.
func eachField(b []byte, fn func(num, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
