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

// This file decodes the few fields of a runtime/pprof CPU profile
// (gzipped perftools.profiles.Profile protobuf) that per-package CPU
// shares need, so the benchmark needs no module outside the standard
// library.

const modulePrefix = "specsimp/internal/"

// otherPkg is the share of samples with no specsimp frame at all: GC
// workers, the scheduler, idle profiler ticks.
const otherPkg = "runtime.other"

// cpuShares charges each sample of a CPU profile to the package of its
// innermost specsimp/internal/<pkg> frame and returns each package's
// share of all samples.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		sampleLoc [][]uint64
		sampleCnt []int64
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			sampleLoc = append(sampleLoc, locs)
			sampleCnt = append(sampleCnt, vals[0])
			return nil
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	pkgOf := func(fn uint64) string {
		i := funcName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		rest, ok := strings.CutPrefix(strs[i], modulePrefix)
		if !ok {
			return ""
		}
		pkg, _, _ := strings.Cut(rest, ".")
		return pkg
	}
	shares := map[string]float64{}
	var total int64
	for i, locs := range sampleLoc {
		pkg := otherPkg
	find:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if p := pkgOf(fn); p != "" {
					pkg = p
					break find
				}
			}
		}
		shares[pkg] += float64(sampleCnt[i])
		total += sampleCnt[i]
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for k := range shares {
		shares[k] /= float64(total)
	}
	return shares, nil
}

// fields walks the top-level fields of one protobuf message, calling fn
// with the field number and either the varint value or the
// length-delimited bytes. Fixed-width fields are skipped; the profile
// format does not use them for anything read here.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v, data nil) or packed (data).
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
