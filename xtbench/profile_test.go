package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"runtime.chanrecv1":                                      "runtime",
		"xtsim/internal/sim.(*Proc).block":                       "xtsim/internal/sim",
		"xtsim/internal/sim.(*Mailbox[go.shape.struct {}]).Recv": "xtsim/internal/sim",
		"xtsim/internal/apps/pop.RunOn.func1":                    "xtsim/internal/apps/pop",
		"encoding/json.(*encodeState).marshal":                   "encoding/json",
		"internal/runtime/atomic.(*Uint32).Load":                 "internal/runtime/atomic",
		"main.run":                                               "main",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		// Goroutine switching for a simulated process.
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "xtsim/internal/sim.(*Proc).block", "xtsim/internal/sim.(*Proc).Wait", "xtsim/internal/mpi.(*P).Wait"}, handoffLayer},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, handoffLayer},
		// Allocation and collection, wherever they are called from.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "xtsim/internal/mpi.(*World).newComm"}, gcLayer},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, gcLayer},
		// Simulator code, standard-library work counted to its caller.
		{[]string{"xtsim/internal/sim.(*eventQueue).siftDown", "xtsim/internal/sim.(*eventQueue).pop", "xtsim/internal/sim.(*Engine).step"}, "sim"},
		{[]string{"runtime.memmove", "xtsim/internal/mpi.(*P).Wait", "xtsim/internal/apps/s3d.RunOn.func1"}, "mpi"},
		{[]string{"encoding/json.(*encodeState).string", "encoding/json.Marshal", "xtsim/internal/timeline.(*Report).WriteJSON"}, "observe"},
		{[]string{"xtsim/internal/lustre.(*FS).write", "xtsim/internal/io.(*Writer).epoch"}, "io"},
		{[]string{"xtsim/internal/machine.Machine.TorusFor", "xtsim/internal/core.NewSystemSIO"}, "core"},
		{[]string{"xtsim/internal/torus.Torus.Route", "xtsim/internal/network.(*Fabric).Deliver"}, "torus"},
		{[]string{"xtsim/internal/kernels.HaloBytesPerFace", "xtsim/internal/apps/s3d.RunOn"}, "apps"},
		// Channel operations outside the simulator are not process handoff.
		{[]string{"runtime.selectgo", "main.startHeapSampler.func1"}, otherLayer},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.newm1"}, otherLayer},
		{[]string{"syscall.Syscall", "main.cpuSeconds"}, otherLayer},
		{nil, otherLayer},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestEveryLayerIsReported(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range packageLayers {
		if !known[e.layer] {
			t.Errorf("package %s folds into %q, which is not in layers", e.pkg, e.layer)
		}
	}
	reported := map[string]bool{}
	for _, d := range perLayer {
		reported[d.name] = true
	}
	for _, l := range layers {
		if !reported[l+".cpu_s"] {
			t.Errorf("layer %q has no %s.cpu_s metric", l, l)
		}
	}
}

func TestLayerShares(t *testing.T) {
	got := layerShares([]stackSample{
		{stack: []string{"xtsim/internal/sim.(*Engine).step"}, nanos: 10e6},
		{stack: []string{"xtsim/internal/sim.(*Engine).step"}, nanos: 20e6},
		{stack: []string{"runtime.mallocgc"}, nanos: 10e6},
	}, 2)
	if len(got) != 2 || got["sim"] != 1.5 || got[gcLayer] != 0.5 {
		t.Fatalf("layerShares = %v, want sim 1.5 and gc 0.5", got)
	}
	if got := layerShares(nil, 0.25); len(got) != 1 || got[otherLayer] != 0.25 {
		t.Fatalf("layerShares without samples = %v, want all in %s", got, otherLayer)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// TestParseCPUProfile decodes a real profile of this process.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.nanos
				break
			}
		}
	}
	if total <= 0 || inSpin <= total/2 {
		t.Fatalf("profile holds %d ns, %d ns of it in spin; want most of it in spin", total, inSpin)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile(strings.NewReader("not a profile")); err == nil {
		t.Fatal("parsed garbage without an error")
	}
}
