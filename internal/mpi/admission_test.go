package mpi

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/trace"
)

var updateAdmission = flag.Bool("update-admission", false,
	"rewrite testdata/admission.golden from the conditions-first call order")

const admissionGolden = "testdata/admission.golden"

// admissionConds are the conditions the admission test enumerates, one
// flag letter each. The first two are fixed when the system is built; the
// rest are applied by set, before or after the fast-path requests.
var admissionConds = []struct {
	flag byte
	set  func(*core.System)
}{
	{'n', nil}, // not a torus (X1E)
	{'v', nil}, // VN placement
	{'T', func(s *core.System) { s.EnableTelemetry() }},
	{'C', func(s *core.System) { s.EnableCritPath() }},
	{'R', func(s *core.System) { s.Tracer = &trace.Recorder{} }},
	{'L', func(s *core.System) { s.EnableTimeline() }},
	{'N', func(s *core.System) { s.NoiseAmp = 0.5 }},
	{'I', func(s *core.System) { s.AttachIO(nil) }},
}

// admissionCase is one enumerated configuration: a condition subset
// (bit i = admissionConds[i]) and the fast paths requested. shards 0 and
// tier -1 mean the Enable call is not made at all.
type admissionCase struct {
	conds  int
	shards int
	tier   core.HybridTier
}

func (c admissionCase) key() string {
	flags := []byte(strings.Repeat(".", len(admissionConds)))
	for i, cd := range admissionConds {
		if c.conds&(1<<i) != 0 {
			flags[i] = cd.flag
		}
	}
	tier := "-"
	if c.tier >= 0 {
		tier = c.tier.String()
	}
	return fmt.Sprintf("%s %d %s", flags, c.shards, tier)
}

func admissionCases() []admissionCase {
	var out []admissionCase
	for conds := 0; conds < 1<<len(admissionConds); conds++ {
		for _, shards := range []int{0, 1, 2} {
			for _, tier := range []core.HybridTier{-1, core.HybridOff, core.HybridExact, core.HybridAnalytic} {
				out = append(out, admissionCase{conds, shards, tier})
			}
		}
	}
	return out
}

// admissionVerdict is what the test pins per case, read after mpi.Run.
type admissionVerdict struct {
	parallel  bool
	parReason string
	hybrid    bool
	hybReason string
}

// runAdmission builds the case's system, applies conditions and requests
// in the given orders, and runs an 8-rank pairwise exchange through Run.
func runAdmission(t *testing.T, c admissionCase, condsFirst, parFirst bool) (admissionVerdict, float64) {
	t.Helper()
	m, mode := machine.XT4(), machine.SN
	if c.conds&1 != 0 {
		m = machine.X1E()
	}
	if c.conds&2 != 0 {
		mode = machine.VN
	}
	sys := core.NewSystem(m, mode, 8)
	conds := func() {
		for i, cd := range admissionConds {
			if cd.set != nil && c.conds&(1<<i) != 0 {
				cd.set(sys)
			}
		}
	}
	par := func() {
		if c.shards > 0 {
			sys.EnableParallel(c.shards)
		}
	}
	hyb := func() {
		if c.tier >= 0 {
			sys.EnableHybrid(c.tier)
		}
	}
	requests := func() {
		if parFirst {
			par()
			hyb()
		} else {
			hyb()
			par()
		}
	}
	if condsFirst {
		conds()
		requests()
	} else {
		requests()
		conds()
	}
	end := Run(sys, Algorithmic, func(p *P) {
		peer := p.Rank() ^ 1
		for s := 0; s < 2; s++ {
			r := p.Irecv(peer, s)
			p.Wait(p.Isend(peer, s, 4096), r)
			p.Compute(core.Work{Flops: 1e6, FlopEff: 0.5, StreamBytes: 1e5})
		}
	})
	if rep := sys.TelemetryReport(); rep != nil {
		if err := rep.Fabric.CheckConservation(); err != nil {
			t.Errorf("%s: %v", c.key(), err)
		}
	}
	return admissionVerdict{sys.ParallelEnabled(), sys.ParallelReason(), sys.HybridEnabled(), sys.HybridReason()}, float64(end)
}

// TestAdmissionIndependentOfCallOrder pins fast-path admission as a
// function of system state: for every subset of the admission conditions,
// every parallel/hybrid request, and every call order (conditions before
// or after the requests, parallel before or after hybrid), the verdicts
// and reason strings after Run equal the golden ones, and the makespan is
// the same in every order. The golden file was generated with conditions
// first and parallel before hybrid, the one order the per-call admission
// switches this table replaced handled fully.
func TestAdmissionIndependentOfCallOrder(t *testing.T) {
	if *updateAdmission {
		writeAdmissionGolden(t)
		return
	}
	want := readAdmissionGolden(t)
	for _, c := range admissionCases() {
		orders := [][2]bool{{true, true}, {false, true}}
		if c.shards > 0 && c.tier >= 0 {
			orders = append(orders, [2]bool{true, false}, [2]bool{false, false})
		}
		var first float64
		for i, o := range orders {
			got, end := runAdmission(t, c, o[0], o[1])
			if w := want[c.key()]; got != w {
				t.Errorf("%s (conditions first %v, parallel first %v):\n got %+v\nwant %+v", c.key(), o[0], o[1], got, w)
			}
			if i == 0 {
				first = end
			} else if end != first {
				t.Errorf("%s (conditions first %v, parallel first %v): makespan %v, want %v", c.key(), o[0], o[1], end, first)
			}
		}
	}
}

// The golden file lists each distinct reason once ("R<id> <reason>") and
// then one line per case: the case key, then ParallelEnabled,
// ParallelReason id, HybridEnabled, HybridReason id (id 0 = "").

func writeAdmissionGolden(t *testing.T) {
	ids := map[string]int{"": 0}
	var reasons []string
	id := func(r string) int {
		if _, ok := ids[r]; !ok {
			ids[r] = len(ids)
			reasons = append(reasons, r)
		}
		return ids[r]
	}
	var lines []string
	b2i := map[bool]int{false: 0, true: 1}
	for _, c := range admissionCases() {
		v, _ := runAdmission(t, c, true, true)
		lines = append(lines, fmt.Sprintf("%s %d %d %d %d", c.key(), b2i[v.parallel], id(v.parReason), b2i[v.hybrid], id(v.hybReason)))
	}
	var sb strings.Builder
	sb.WriteString("# Fast-path admission verdicts; see TestAdmissionIndependentOfCallOrder.\n")
	for i, r := range reasons {
		fmt.Fprintf(&sb, "R%d %s\n", i+1, r)
	}
	for _, l := range lines {
		sb.WriteString(l + "\n")
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(admissionGolden, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readAdmissionGolden(t *testing.T) map[string]admissionVerdict {
	f, err := os.Open(admissionGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reasons := map[string]string{"0": ""}
	want := map[string]admissionVerdict{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "R"):
			id, reason, _ := strings.Cut(line[1:], " ")
			reasons[id] = reason
		default:
			fs := strings.Fields(line)
			if len(fs) != 7 {
				t.Fatalf("malformed golden line %q", line)
			}
			want[strings.Join(fs[:3], " ")] = admissionVerdict{fs[3] == "1", reasons[fs[4]], fs[5] == "1", reasons[fs[6]]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n := len(admissionCases()); len(want) != n {
		t.Fatalf("golden file has %d cases, want %d", len(want), n)
	}
	return want
}
