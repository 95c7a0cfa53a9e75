package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nocsprint/internal/serve"
)

// expected mirrors perfbench/expected.json.
type expected struct {
	CLI  map[string]string            `json:"cli"`
	Jobs map[string]map[string]string `json:"jobs"`
}

func loadExpected(t *testing.T) expected {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	return e
}

// exactMetrics are the counters that must repeat identically across traced
// runs at the same seed.
var exactMetrics = []string{
	"noc.sim_cycles", "noc.router_cycles", "noc.flits_ejected",
	"noc.drain_share", "noc.saturated_share", "runner.points",
	"ckpt.appends", "ckpt.journal_bytes",
}

// traceTwice makes two traced runs and checks that both produced the
// recorded outputs and identical exact counters.
func traceTwice(t *testing.T, trace func() (*report, error), want func(output) string) {
	t.Helper()
	var first *report
	for i := 0; i < 2; i++ {
		rep, err := trace()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != 0 || len(rep.Outputs) != rep.Attempted {
			t.Fatalf("run %d: %d of %d operations failed: %v", i, rep.Failed, rep.Attempted, rep.Errors)
		}
		for _, o := range rep.Outputs {
			if w := want(o); o.SHA256 != w {
				t.Errorf("run %d: %s digest %s, recorded %s", i, o.Name, o.SHA256, w)
			}
		}
		if rep.Metrics["noc.sim_cycles"] == 0 {
			t.Errorf("run %d: no simulated cycles observed", i)
		}
		if first == nil {
			first = rep
			continue
		}
		for _, name := range exactMetrics {
			if a, b := first.Metrics[name], rep.Metrics[name]; a != b {
				t.Errorf("%s: %v then %v across identical traced runs", name, a, b)
			}
		}
	}
}

// TestTracedCLIMatchesRecordedOutputs runs a cheap subset of the CLI
// experiments under the tracer: the bytes must equal what nocsprint -json
// printed when the digests were recorded, and the counters must repeat.
func TestTracedCLIMatchesRecordedOutputs(t *testing.T) {
	e := loadExpected(t)
	cfg := config{workload: "dark_lowload", experiments: []string{"fig2", "fig12", "wires", "scale"}, work: t.TempDir()}
	traceTwice(t, func() (*report, error) { return run(cfg) }, func(o output) string { return e.CLI[o.Name] })
}

// TestTracedDaemonMatchesRecordedResults drives a short job sequence
// through the traced daemon: every result must equal the digest recorded
// from nocsprintd, every driver span must carry its job's ID, and journal
// and simulator counters must repeat.
func TestTracedDaemonMatchesRecordedResults(t *testing.T) {
	e := loadExpected(t)
	const seed = 5
	var jobs []serve.JobSpec
	for _, exp := range []string{"fig2", "scale", "fig11", "faults", "scale"} {
		jobs = append(jobs, serve.JobSpec{Experiment: exp, Fast: true, Workers: 1, Seed: seed})
	}
	trace := func() (*report, error) {
		state := t.TempDir()
		if err := os.MkdirAll(filepath.Join(state, "jobs"), 0o755); err != nil {
			return nil, err
		}
		stop := make(chan struct{})
		var outs []output
		var clientErr error
		cfg := config{workload: "daemon_jobs", state: state, work: t.TempDir(), stop: stop, ready: func(addr string) {
			go func() {
				defer close(stop)
				outs, clientErr = drive("http://"+addr, jobs)
			}()
		}}
		rep, err := run(cfg)
		if err != nil {
			return nil, err
		}
		if clientErr != nil {
			return nil, clientErr
		}
		rep.Outputs, rep.Attempted = outs, len(jobs)
		checkJobSpans(t, filepath.Join(cfg.work, "spans.json"), len(jobs))
		return rep, nil
	}
	traceTwice(t, trace, func(o output) string {
		exp := strings.Split(o.Name, ":")[1]
		return e.Jobs[strconv.Itoa(seed)][exp]
	})
}

// drive is a minimal closed-loop client: it submits each job, polls it to
// a terminal state and hashes its result.
func drive(base string, jobs []serve.JobSpec) ([]output, error) {
	var outs []output
	for _, spec := range jobs {
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		var v struct{ ID, State, Error string }
		if err := getJSON(http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body)))(&v); err != nil {
			return nil, err
		}
		for v.State == "queued" || v.State == "running" {
			time.Sleep(2 * time.Millisecond)
			if err := getJSON(http.Get(base + "/v1/jobs/" + v.ID))(&v); err != nil {
				return nil, err
			}
		}
		if v.State != "done" {
			return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			return nil, err
		}
		res, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		outs = append(outs, output{Name: fmt.Sprintf("job:%s:%d", spec.Experiment, spec.Seed), SHA256: digest(res)})
	}
	return outs, nil
}

func getJSON(resp *http.Response, err error) func(any) error {
	return func(v any) error {
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s: HTTP %d", resp.Request.URL, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
}

// checkJobSpans checks that the run wrote one serve.job span per job and
// that every driver span names the job that contains it.
func checkJobSpans(t *testing.T, path string, jobs int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	ids := map[string]span{}
	for _, sp := range spans {
		if sp.Name == "serve.job" {
			ids[sp.ID] = sp
		}
	}
	if len(ids) != jobs {
		t.Errorf("%d serve.job spans with distinct IDs, want %d", len(ids), jobs)
	}
	for _, sp := range spans {
		if sp.Parent != "serve.job" {
			continue
		}
		job, ok := ids[sp.ID]
		if !ok || sp.StartS < job.StartS || sp.EndS > job.EndS {
			t.Errorf("span %s (%v..%v) not inside its job %q", sp.Name, sp.StartS, sp.EndS, sp.ID)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"nocsprint/internal/noc.(*Network).switchAllocation": "nocsprint/internal/noc",
		"nocsprint/internal/core.Fig11Sweep.func1":           "nocsprint/internal/core",
		"runtime.mallocgc":       "runtime",
		"main.runCLI":            "main",
		"net/http.(*conn).serve": "net/http",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	stacks := []stack{
		{funcs: []string{"runtime.mallocgc", nocPkg + ".(*Network).switchAllocation", nocPkg + ".(*Network).Step"}, count: 3},
		{funcs: []string{nocPkg + ".(*Network).routeCompute", nocPkg + ".(*Network).Step"}, count: 1},
		{funcs: []string{"nocsprint/internal/ckpt.(*Journal).Append"}, count: 2},
		{funcs: []string{"runtime.gcBgMarkWorker"}, count: 2},
	}
	m := map[string]float64{}
	attribute(stacks, 100, m)
	for name, want := range map[string]float64{
		"noc.cpu_share": 0.5, "ckpt.cpu_share": 0.25, "unattributed.cpu_share": 0.25,
		"noc.sa_share": 0.75, "noc.rc_share": 0.25, "noc.cpu_s": 0.04, "profile.samples": 8,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

func TestParseRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Period: 4000000
Samples:
samples/count cpu/nanoseconds
          3   12000000: 1 2 
          1    4000000: 3 
Locations
     1: 0x46c288 M=1 runtime.nanotime /go/src/runtime/time_nofake.go:33:0 s=32
             time.runtimeNano /go/src/runtime/time.go:32:0 s=27
     2: 0x4b96ce M=1 nocsprint/internal/noc.(*Network).Step /src/internal/noc/network.go:10:0 s=10
     3: 0x7ffd0000 M=2 
Mappings
1: 0x400000/0x4ba000/0x0 /bin/trace [FN]
`
	stacks, err := parseRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{funcs: []string{"runtime.nanotime", "time.runtimeNano", nocPkg + ".(*Network).Step"}, count: 3},
		{count: 1},
	}
	if fmt.Sprint(stacks) != fmt.Sprint(want) {
		t.Errorf("parseRaw = %v, want %v", stacks, want)
	}
}
