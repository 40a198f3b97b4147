package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeCampaign builds n experiments whose completion order under a
// parallel runner differs from registration order: earlier experiments
// sleep longer, so later ones finish first.
func fakeCampaign(n int) []Experiment {
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:       fmt.Sprintf("fake%d", i),
			Artifact: "Fake",
			Title:    fmt.Sprintf("fake experiment %d", i),
			Run: func(res *Result, _ Options) error {
				time.Sleep(time.Duration(n-i) * 2 * time.Millisecond)
				tab := res.Table()
				tab.Row("id", "value")
				tab.Row(fmt.Sprintf("fake%d", i), itoa(i*i))
				res.AddSimSeconds(float64(i))
				return nil
			},
		}
	}
	return exps
}

func runCampaign(t *testing.T, exps []Experiment, jobs int) (string, []Status) {
	t.Helper()
	var out bytes.Buffer
	r := &Runner{Jobs: jobs, Output: &out}
	statuses := r.Run(exps)
	return out.String(), statuses
}

func TestRunnerOrderedCollection(t *testing.T) {
	exps := fakeCampaign(8)
	out, statuses := runCampaign(t, exps, 8)
	if len(statuses) != len(exps) {
		t.Fatalf("got %d statuses, want %d", len(statuses), len(exps))
	}
	for i, s := range statuses {
		if s.Experiment.ID != exps[i].ID {
			t.Errorf("status %d is %s, want %s", i, s.Experiment.ID, exps[i].ID)
		}
		if s.Err != nil {
			t.Errorf("%s: unexpected error %v", s.Experiment.ID, s.Err)
		}
		if s.Wall <= 0 {
			t.Errorf("%s: wall-clock metric not recorded", s.Experiment.ID)
		}
	}
	// Output must follow registration order even though fake7 finished
	// first (it sleeps least).
	last := -1
	for i := range exps {
		pos := strings.Index(out, exps[i].Header())
		if pos < 0 {
			t.Fatalf("output missing banner for %s", exps[i].ID)
		}
		if pos < last {
			t.Fatalf("banner for %s out of order", exps[i].ID)
		}
		last = pos
	}
}

func TestRunnerOutputIdenticalAcrossJobs(t *testing.T) {
	exps := fakeCampaign(10)
	seq, _ := runCampaign(t, exps, 1)
	par, _ := runCampaign(t, exps, 8)
	if seq != par {
		t.Fatalf("output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", seq, par)
	}
}

// shortCampaign runs the whole registry at short scale with one worker,
// once per test binary, and hands every caller its rendered output and
// statuses.
var shortCampaign = sync.OnceValues(func() ([]byte, []Status) {
	var out bytes.Buffer
	statuses := (&Runner{Jobs: 1, Opts: Options{Short: true}, Output: &out}).Run(All())
	return out.Bytes(), statuses
})

// TestCampaignOutputIdenticalAcrossJobs is the real-registry determinism
// guarantee: `xtsim -run all -short` renders byte-identical output at any
// worker count.
func TestCampaignOutputIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry campaign comparison runs in full mode")
	}
	seq, _ := shortCampaign()
	var par bytes.Buffer
	(&Runner{Jobs: 8, Opts: Options{Short: true}, Output: &par}).Run(All())
	if !bytes.Equal(seq, par.Bytes()) {
		t.Fatalf("campaign output differs between -jobs 1 (%d bytes) and -jobs 8 (%d bytes)",
			len(seq), par.Len())
	}
	if len(seq) == 0 {
		t.Fatal("campaign produced no output")
	}
}

func TestRunnerPanicRecovery(t *testing.T) {
	exps := fakeCampaign(3)
	exps[1].Run = func(*Result, Options) error { panic("boom") }
	var progress bytes.Buffer
	var out bytes.Buffer
	r := &Runner{Jobs: 2, Output: &out, Progress: &progress}
	statuses := r.Run(exps)

	if err := statuses[1].Err; err == nil || !strings.Contains(err.Error(), "panic: boom") {
		t.Fatalf("panicking experiment error = %v, want panic message", err)
	}
	if len(statuses[1].Stack) == 0 {
		t.Error("panic should capture a stack trace")
	}
	if statuses[0].Err != nil || statuses[2].Err != nil {
		t.Errorf("siblings of a panicking experiment must still succeed: %v, %v",
			statuses[0].Err, statuses[2].Err)
	}
	if failed := Failed(statuses); len(failed) != 1 || failed[0].Experiment.ID != "fake1" {
		t.Errorf("Failed() = %+v, want just fake1", failed)
	}
	if !strings.Contains(out.String(), "-- fake1 FAILED: panic: boom --") {
		t.Errorf("rendered output should report the failure:\n%s", out.String())
	}
	if !strings.Contains(progress.String(), "runner_test.go") &&
		!strings.Contains(progress.String(), "goroutine") {
		t.Errorf("progress stream should carry the panic stack:\n%s", progress.String())
	}
}

func TestRunnerTimeout(t *testing.T) {
	exps := fakeCampaign(2)
	exps[0].Run = func(*Result, Options) error {
		time.Sleep(2 * time.Second)
		return nil
	}
	r := &Runner{Jobs: 2, Timeout: 30 * time.Millisecond}
	statuses := r.Run(exps)
	if err := statuses[0].Err; err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("slow experiment error = %v, want timeout", err)
	}
	if statuses[1].Err != nil {
		t.Errorf("fast experiment should beat the timeout: %v", statuses[1].Err)
	}
}

func TestRunnerErrorDoesNotStopCampaign(t *testing.T) {
	exps := fakeCampaign(4)
	exps[0].Run = func(*Result, Options) error { return fmt.Errorf("synthetic failure") }
	_, statuses := runCampaign(t, exps, 1)
	for i := 1; i < len(statuses); i++ {
		if statuses[i].Err != nil {
			t.Errorf("experiment %d should have run despite the earlier failure: %v", i, statuses[i].Err)
		}
	}
	if statuses[0].Err == nil {
		t.Error("failure should be reported")
	}
}

// TestRunnerOnCompleteStreamsCompletionOrder pins the streaming contract
// the -serve campaign server depends on: OnComplete fires exactly once
// per experiment, in completion order (not input order), with the input
// index and the final Status — while Output still renders in input order,
// and concatenating per-status Render calls in input order reproduces the
// Output bytes exactly. Completion order is forced, not timed: gated
// experiments are released in the order 2, 0, 1.
func TestRunnerOnCompleteStreamsCompletionOrder(t *testing.T) {
	const n = 3
	gates := make([]chan struct{}, n)
	started := make(chan int, n)
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		gates[i] = make(chan struct{})
		exps[i] = Experiment{
			ID:       fmt.Sprintf("gated%d", i),
			Artifact: "Fake",
			Title:    fmt.Sprintf("gated experiment %d", i),
			Run: func(res *Result, _ Options) error {
				started <- i
				<-gates[i]
				res.Textf("gated%d ran\n", i)
				return nil
			},
		}
	}

	type completion struct {
		idx int
		s   Status
	}
	completions := make(chan completion, n)
	var out bytes.Buffer
	r := &Runner{Jobs: n, Output: &out, OnComplete: func(i int, s Status) {
		completions <- completion{i, s}
	}}
	statusCh := make(chan []Status, 1)
	go func() { statusCh <- r.Run(exps) }()

	for i := 0; i < n; i++ {
		<-started // all experiments in flight before any gate opens
	}
	for _, want := range []int{2, 0, 1} {
		close(gates[want])
		got := <-completions
		if got.idx != want {
			t.Fatalf("OnComplete fired for index %d, want %d (completion order)", got.idx, want)
		}
		if got.s.Err != nil || got.s.Result == nil {
			t.Fatalf("OnComplete status for %d not final: err=%v result=%v", want, got.s.Err, got.s.Result)
		}
		if got.s.Experiment.ID != exps[want].ID {
			t.Fatalf("OnComplete status names %s, want %s", got.s.Experiment.ID, exps[want].ID)
		}
	}

	statuses := <-statusCh
	var rerender bytes.Buffer
	for i := range statuses {
		if err := statuses[i].Render(&rerender); err != nil {
			t.Fatal(err)
		}
	}
	if rerender.String() != out.String() {
		t.Fatalf("input-order Status.Render differs from campaign Output:\n--- rendered ---\n%s\n--- output ---\n%s",
			rerender.String(), out.String())
	}
	if !strings.Contains(out.String(), "gated0 ran") {
		t.Fatal("output missing experiment body")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	e, err := ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Short: true}
	r := &Runner{Jobs: 1, Opts: opts}
	statuses := r.Run([]Experiment{e})
	if statuses[0].Err != nil {
		t.Fatal(statuses[0].Err)
	}
	art := statuses[0].Artifact(opts)
	if art.SchemaVersion != ArtifactSchemaVersion || art.ID != "table1" || len(art.Machines) == 0 {
		t.Fatalf("artifact metadata incomplete: %+v", art)
	}

	buf, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art.Blocks, back.Blocks) {
		t.Errorf("blocks changed across marshal/unmarshal:\n%+v\nvs\n%+v", art.Blocks, back.Blocks)
	}
	if !reflect.DeepEqual(art.Options, back.Options) || art.ID != back.ID {
		t.Errorf("metadata changed across marshal/unmarshal")
	}
	if !reflect.DeepEqual(art.Machines, back.Machines) {
		t.Errorf("machine configs changed across marshal/unmarshal")
	}

	// The rendered text regenerated from the unmarshalled artifact must
	// match the original rendering — the artifact is a faithful record.
	var orig, rt bytes.Buffer
	if err := statuses[0].Result.Render(&orig); err != nil {
		t.Fatal(err)
	}
	restored := Result{Blocks: back.Blocks}
	if err := restored.Render(&rt); err != nil {
		t.Fatal(err)
	}
	if orig.String() != rt.String() {
		t.Errorf("round-tripped render differs:\n%s\nvs\n%s", orig.String(), rt.String())
	}
}
