package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers names every row of the cpu_share table, in report order.
var cpuLayers = []string{
	"sim", "sharded", "overlay", "ledger", "policy", "chunkstream", "access",
	"topology", "world", "scenario", "capture", "experiment", "study",
	"fleet", "dash", "wire", "runtime_maps", "runtime_gc", "other",
}

// foldProfile reduces a runtime/pprof CPU profile to each layer's share of
// the samples' self time: a sample belongs to the layer of its leaf frame.
// The standard library exports no profile reader, so this decodes the few
// profile.proto fields it needs (sample stacks and values, location lines,
// function names and files) from the gzipped protobuf directly.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type fn struct{ name, file int64 }
	var (
		strs    []string
		funcs   = map[uint64]fn{}
		locs    = map[uint64][]uint64{} // location id → function ids, leaf first
		samples [][2][]uint64           // location ids, values
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s [2][]uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				if num == 1 || num == 2 {
					s[num-1] = appendVarints(s[num-1], v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var lines []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							lines = append(lines, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // Function
			var id uint64
			var f fn
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			funcs[id] = f
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}

	share := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		share[l] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) == 0 {
			continue
		}
		// Stack as function names and files, leaf first, inlined frames
		// expanded.
		var names, files []string
		for _, loc := range s[0] {
			for _, fid := range locs[loc] {
				f := funcs[fid]
				names = append(names, str(f.name))
				files = append(files, str(f.file))
			}
		}
		if len(names) == 0 {
			continue
		}
		v := float64(s[1][len(s[1])-1]) // last value is cpu nanoseconds
		share[layerOf(names, files)] += v
		total += v
	}
	if total == 0 {
		// A run too short to catch a single 10 ms sample (smoke scale).
		share["other"] = 1
		return share, nil
	}
	for l := range share {
		share[l] /= total
	}
	return share, nil
}

// layerOf maps a stack (leaf first) to its cpu_share row. The leaf frame
// decides, with two refinements the leaf alone cannot express: runtime
// frames working for the allocator or collector count as runtime_gc, and
// the two files that make up the sharded engine are split from the
// packages they live in.
func layerOf(names, files []string) string {
	leaf, file := names[0], files[0]
	if pkg, ok := strings.CutPrefix(leaf, "napawine/internal/"); ok {
		switch {
		case strings.HasSuffix(file, "/internal/sim/sharded.go"), strings.HasSuffix(file, "/internal/overlay/shard.go"):
			return "sharded"
		case strings.HasPrefix(pkg, "overlay.(*Ledger)"):
			return "ledger"
		}
		pkg = pkg[:strings.IndexAny(pkg+".", ".")]
		switch pkg {
		case "sim", "overlay", "policy", "chunkstream", "access", "topology", "world", "scenario", "experiment", "fleet", "dash":
			return pkg
		case "sniffer", "packet", "analysis", "core":
			return "capture"
		case "study", "runner":
			return "study"
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(leaf, "net/http"), strings.HasPrefix(leaf, "encoding/json"):
		return "wire"
	case strings.HasPrefix(leaf, "internal/runtime/maps."), strings.HasPrefix(leaf, "runtime.map"):
		return "runtime_maps"
	case strings.HasPrefix(leaf, "runtime."), strings.HasPrefix(leaf, "internal/runtime/"):
		for _, n := range names {
			switch n {
			case "runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.growslice":
				return "runtime_gc"
			}
		}
	}
	return "other"
}

// eachField walks one protobuf message, handing each field to f: v carries
// varint and fixed values, b length-delimited bytes.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
