package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file is a minimal decoder for the gzipped protobuf profiles
// runtime/pprof writes (profile.proto), enough to attribute every
// sample to a layer. It avoids depending on the pprof tool at run time.

// layerOf maps a sample's stack (leaf first, inlined frames innermost
// first) to the layer that owns it: the innermost mccs/internal/<pkg>
// frame, "bench" when the benchmark's own code is reached first, and
// runtime_bg when the stack never enters the module (GC workers,
// scheduler, profiler).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "mccs/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime_bg"
}

// profileByLayer decodes a pprof profile and sums sample value column
// col per layer (CPU profiles: 1 = nanoseconds; heap profiles: 1 =
// alloc_space bytes).
func profileByLayer(data []byte, col int) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.vals = append(s.vals, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var stack []string
	for _, s := range samples {
		if col >= len(s.vals) {
			return nil, fmt.Errorf("profile: sample has %d values, want column %d", len(s.vals), col)
		}
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fid := range locFns[l] {
				if i := fnName[fid]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out[layerOf(stack)] += float64(s.vals[col])
	}
	return out, nil
}

// appendPacked appends a repeated varint field that may arrive either
// packed (length-delimited) or as a single varint.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message. fn receives the varint value
// for wire type 0 and the payload for wire type 2 (b == nil otherwise).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
