package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// host describes the machine a result was measured on. Wall times from
// different hosts, or from one host under different load, are not
// comparable, so every result carries it.
type host struct {
	nproc      int
	cpu        string
	gomaxprocs int
	goVersion  string
}

func currentHost() host {
	return host{
		nproc:      runtime.NumCPU(),
		cpu:        cpuModel(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d cpu=%q GOMAXPROCS=%d go=%s", h.nproc, h.cpu, h.gomaxprocs, h.goVersion)
}
