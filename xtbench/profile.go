package main

// A CPU profile taken in this process (runtime/pprof) is a gzipped
// protocol buffer in the pprof format. This file decodes the few fields
// the layer fold needs — samples, locations, functions, strings — with the
// standard library alone, then folds each sample's stack into one layer.

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Field numbers of the pprof profile.proto messages this decoder reads.
const (
	profSampleType = 1 // Profile.sample_type (ValueType)
	profSample     = 2 // Profile.sample
	profLocation   = 4 // Profile.location
	profFunction   = 5 // Profile.function
	profString     = 6 // Profile.string_table

	valueTypeType = 1 // ValueType.type (string index)

	sampleLocation = 1 // Sample.location_id (leaf first)
	sampleValue    = 2 // Sample.value

	locationID   = 1 // Location.id
	locationLine = 4 // Location.line (inlined callee first)
	lineFunction = 1 // Line.function_id

	functionID   = 1 // Function.id
	functionName = 2 // Function.name (string index)
)

// stackSample is one profile sample: its stack as function names, leaf
// first, with inlined frames expanded, and its CPU time.
type stackSample struct {
	stack []string
	nanos int64
}

// protoField is one decoded field of a protocol-buffer message: a varint
// (or fixed-width) value, or the bytes of a length-delimited field.
type protoField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// protoFields splits a message into its fields.
func protoFields(b []byte) ([]protoField, error) {
	var fs []protoField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.value, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			f.value, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length-delimited field")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			f.value, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		fs = append(fs, f)
	}
	return fs, nil
}

// varints appends a repeated integer field's values, packed or not.
func (f protoField) varints(dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.value), nil
	}
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzipped CPU profile into stack samples.
func parseCPUProfile(r io.Reader) ([]stackSample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := protoFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{} // function id -> name string index
	locFuncs := map[uint64][]uint64{}
	type rawSample struct{ locs, vals []uint64 }
	var samples []rawSample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		sub, err := protoFields(f.bytes)
		if f.num != profString && err != nil {
			return nil, err
		}
		switch f.num {
		case profString:
			strs = append(strs, string(f.bytes))
		case profSampleType:
			for _, g := range sub {
				if g.num == valueTypeType {
					typeIdx = append(typeIdx, g.value)
				}
			}
		case profSample:
			var s rawSample
			for _, g := range sub {
				switch g.num {
				case sampleLocation:
					if s.locs, err = g.varints(s.locs); err != nil {
						return nil, err
					}
				case sampleValue:
					if s.vals, err = g.varints(s.vals); err != nil {
						return nil, err
					}
				}
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case locationID:
					id = g.value
				case locationLine:
					line, err := protoFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == lineFunction {
							fns = append(fns, h.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case profFunction:
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case functionID:
					id = g.value
				case functionName:
					name = g.value
				}
			}
			funcName[id] = name
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range typeIdx {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ss := stackSample{nanos: int64(s.vals[cpu])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ss.stack = append(ss.stack, str(funcName[fn]))
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// The layers a sample folds into. handoffLayer is the runtime's goroutine
// switching on behalf of simulated processes; gcLayer is allocation and
// garbage collection; otherLayer holds the runtime's own background work,
// this program's code, and anything else outside the simulator.
const (
	handoffLayer = "sim.handoff"
	gcLayer      = "gc"
	otherLayer   = "other"
)

// layers lists every layer in report order.
var layers = []string{handoffLayer, "sim", "mpi", "network", "torus", gcLayer, "observe", "io", "apps", "core", otherLayer}

// packageLayers maps the simulator's packages to layers. An entry matches
// its package and the packages below it.
var packageLayers = []struct{ pkg, layer string }{
	{"xtsim/internal/sim", "sim"},
	{"xtsim/internal/mpi", "mpi"},
	{"xtsim/internal/network", "network"},
	{"xtsim/internal/torus", "torus"},
	{"xtsim/internal/core", "core"},
	{"xtsim/internal/machine", "core"},
	{"xtsim/internal/apps", "apps"},
	{"xtsim/internal/kernels", "apps"},
	{"xtsim/internal/hpcc", "apps"},
	{"xtsim/internal/telemetry", "observe"},
	{"xtsim/internal/timeline", "observe"},
	{"xtsim/internal/critpath", "observe"},
	{"xtsim/internal/trace", "observe"},
	{"xtsim/internal/io", "io"},
	{"xtsim/internal/lustre", "io"},
}

// gcFrames and schedFrames are runtime function-name prefixes: allocation
// and collection work, and goroutine parking, waking and scheduling.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.malloc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.mark", "runtime.scan",
		"runtime.greyobject", "runtime.sweep", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.(*mheap)", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*gcWork)", "runtime.(*mspan)", "runtime.(*pageAlloc)",
		"runtime.(*sweepLocked)", "runtime.(*gcControllerState)", "runtime.findObject",
	}
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.send",
		"runtime.recv", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.park_m", "runtime.mcall", "runtime.schedule", "runtime.findRunnable",
		"runtime.execute", "runtime.gogo", "runtime.runq", "runtime.globrunq",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futex", "runtime.goexit0", "runtime.gosched",
		"runtime.stealWork", "runtime.checkTimers", "runtime.resetspinning",
		"runtime.acquirep", "runtime.releasep", "runtime.handoffp", "runtime.newproc",
		"runtime.casgstatus", "runtime.lock2", "runtime.unlock2", "runtime.osyield",
		"runtime.usleep", "runtime.procyield", "runtime.netpoll", "runtime.mPark",
	}
)

// packageOf returns the import path of a profiled function name, such as
// "xtsim/internal/sim" for "xtsim/internal/sim.(*Mailbox[...]).Recv".
func packageOf(fn string) string {
	head := fn
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	start := strings.LastIndexByte(head, '/') + 1
	if i := strings.IndexByte(head[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return head
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

func hasPrefixIn(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageLayer returns the layer of a simulator package, or "" for a
// package outside the simulator.
func packageLayer(pkg string) string {
	for _, e := range packageLayers {
		if pkg == e.pkg || strings.HasPrefix(pkg, e.pkg+"/") {
			return e.layer
		}
	}
	return ""
}

// layerOf folds one stack (leaf first) into a layer. The runtime frames at
// the leaf decide first: allocation or collection anywhere among them is
// gc; parking, waking or scheduling is handoff when the nearest simulator
// frame above is in sim, or when the stack is all runtime (the scheduler
// runs on its own stack). Otherwise the sample belongs to the nearest simulator frame's
// layer, so standard-library work (JSON encoding in an export, say) counts
// toward the layer that called it.
func layerOf(stack []string) string {
	sched := false
	i := 0
	for ; i < len(stack); i++ {
		fn := stack[i]
		if !isRuntime(packageOf(fn)) {
			break
		}
		if hasPrefixIn(fn, gcFrames) {
			return gcLayer
		}
		if strings.HasPrefix(fn, "runtime.sysmon") {
			return otherLayer
		}
		if hasPrefixIn(fn, schedFrames) {
			sched = true
		}
	}
	onlyRuntime := i == len(stack)
	owner := ""
	for ; i < len(stack); i++ {
		if owner = packageLayer(packageOf(stack[i])); owner != "" {
			break
		}
	}
	switch {
	case sched && (onlyRuntime || owner == "sim"):
		return handoffLayer
	case owner == "":
		return otherLayer
	}
	return owner
}

// layerShares splits cpu seconds, measured over the profiled interval,
// across layers in proportion to the samples each layer holds. The
// profiler samples in 10 ms ticks; scaling by the measured CPU time keeps
// the sum exact. Without samples the time goes to otherLayer.
func layerShares(samples []stackSample, cpu float64) map[string]float64 {
	nanos := make(map[string]int64, len(layers))
	var total int64
	for _, s := range samples {
		nanos[layerOf(s.stack)] += s.nanos
		total += s.nanos
	}
	if total == 0 {
		return map[string]float64{otherLayer: cpu}
	}
	out := make(map[string]float64, len(nanos))
	for l, n := range nanos {
		out[l] = cpu * float64(n) / float64(total)
	}
	return out
}
