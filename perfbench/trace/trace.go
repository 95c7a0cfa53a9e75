package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"nocsprint/internal/core"
	"nocsprint/internal/obs"
	"nocsprint/internal/serve"
)

// config is one traced run.
type config struct {
	workload    string
	experiments []string // CLI workloads
	work        string

	// daemon_jobs: the session's state directory, used in place; ready
	// receives the listen address once the job API serves, and the session
	// ends when stop is closed.
	state string
	ready func(addr string)
	stop  <-chan struct{}
}

// profileHz is the CPU profile sampling rate: 2.5x pprof's default, so the
// short daemon and dark_lowload runs still yield several hundred samples.
const profileHz = 250

// output is one result the run produced, by digest.
type output struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// report is what the run prints: the outputs to check, the operation
// counts, and the per-layer metrics.
type report struct {
	Outputs   []output           `json:"outputs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// span is one timed call at a layer boundary. Spans of one daemon job share
// its ID.
type span struct {
	Name       string  `json:"name"`
	ID         string  `json:"id,omitempty"`
	Parent     string  `json:"parent,omitempty"`
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// windows are the synthetic-run phase lengths the drivers use, needed to
// split a network's observed cycles into warmup+measure and drain.
type windows struct{ warmup, measure int64 }

var (
	fullWindows = windows{1500, 4000} // core.NetSimParams defaults
	fastWindows = windows{300, 1000}  // -fast and fast daemon jobs
)

// syntheticPrefixes are the telemetry labels of networks driven by
// noc.RunSynthetic (warmup, measure, then a drain that keeps background
// traffic flowing until every measured packet has left).
var syntheticPrefixes = []string{"eval/", "heatmap/", "fig11/", "gating/", "wires/", "scaling/"}

// nocCounts accumulates the exact per-network counters.
type nocCounts struct {
	simCycles, routerCycles, flitsEjected int64
	drainCycles                           int64
	// saturated and verdicts count the Saturated* flags in the results.
	saturated, verdicts int64
}

type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	noc    nocCounts
	points int64
}

func (t *tracer) since() float64 { return time.Since(t.t0).Seconds() }

// do runs fn inside a span and records it.
func (t *tracer) do(name, id, parent string, fn func() error) error {
	a0, s0 := heapAllocs(), t.since()
	err := fn()
	t.add(span{Name: name, ID: id, Parent: parent, StartS: s0, EndS: t.since(), AllocBytes: heapAllocs() - a0})
	return err
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// progress counts computed sweep points. ckpt.Run reports each sweep's
// journal-decoded prefix first (done == 0 on a fresh journal), then once
// per computed point.
func (t *tracer) progress(done, total int) {
	if done == 0 {
		return
	}
	t.mu.Lock()
	t.points++
	t.mu.Unlock()
}

// sim returns the parameters every driver call gets: one sweep worker, a
// fresh telemetry recorder, and the point counter.
func (t *tracer) sim() (core.NetSimParams, *obs.Recorder) {
	rec, err := obs.NewRecorder(obs.Config{})
	if err != nil {
		panic(err) // the default configuration is valid
	}
	return core.NetSimParams{Workers: 1, Obs: rec, Progress: t.progress}, rec
}

// count folds the recorder's per-network telemetry into the counters.
func (t *tracer) count(rec *obs.Recorder, w windows) {
	var c nocCounts
	for _, col := range rec.Collectors() {
		col.Finish()
		var cycles int64
		for _, s := range col.Samples() {
			cycles += s.Window
			c.routerCycles += int64(s.ActiveRouters) * s.Window
			c.flitsEjected += s.EjectedFlits
		}
		c.simCycles += cycles
		for _, p := range syntheticPrefixes {
			if strings.HasPrefix(col.Label(), p) {
				c.drainCycles += max(cycles-w.warmup-w.measure, 0)
				break
			}
		}
	}
	t.mu.Lock()
	t.noc.simCycles += c.simCycles
	t.noc.routerCycles += c.routerCycles
	t.noc.flitsEjected += c.flitsEjected
	t.noc.drainCycles += c.drainCycles
	t.mu.Unlock()
}

// verdicts counts the saturation verdicts in one JSON result: every boolean
// field whose name starts with "Saturated", and how many of them are true.
func (t *tracer) verdicts(result []byte) {
	var v any
	if json.Unmarshal(result, &v) != nil {
		return
	}
	var sat, all int64
	var walk func(any)
	walk = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				if b, ok := e.(bool); ok && strings.HasPrefix(k, "Saturated") {
					all++
					if b {
						sat++
					}
				}
				walk(e)
			}
		case []any:
			for _, e := range x {
				walk(e)
			}
		}
	}
	walk(v)
	t.mu.Lock()
	t.noc.saturated += sat
	t.noc.verdicts += all
	t.mu.Unlock()
}

// run executes the workload under the tracer and profiler. Only the
// workload runs while the profile records; counting verdicts, timing ckpt
// and reading the profile come after.
func run(cfg config) (*report, error) {
	t := &tracer{t0: time.Now()}
	rep := &report{Metrics: map[string]float64{}}

	// Setting the rate first makes StartCPUProfile keep it (the runtime
	// prints a warning that the rate was already set).
	runtime.SetCPUProfileRate(profileHz)
	profPath := filepath.Join(cfg.work, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	cpu0, rt0 := processCPU(), readRuntime()
	var s *session
	if cfg.workload == "daemon_jobs" {
		s, err = serveDaemon(t, cfg, rep.Metrics)
	} else {
		runCLI(t, cfg, rep)
	}
	cpu1, rt1 := processCPU(), readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}

	rep.Metrics["trace.cpu_s"] = cpu1 - cpu0
	if busy := (rt1.total - rt1.idle) - (rt0.total - rt0.idle); busy > 0 {
		rep.Metrics["runtime.gc_share"] = (rt1.gc - rt0.gc) / busy
	}
	if s != nil {
		if err := s.finish(t, cfg.work, rep.Metrics); err != nil {
			return nil, err
		}
		t.linkJobs()
	}
	stacks, err := readProfile(profPath)
	if err != nil {
		return nil, err
	}
	attribute(stacks, profileHz, rep.Metrics)
	t.summarize(rep.Metrics)

	spans, err := json.MarshalIndent(t.spans, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.work, "spans.json"), spans, 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// cliPaper is the envelope field nocsprint -json prints before the result.
const cliPaper = "NoC-Sprinting, DAC 2014 (10.1145/2593069.2593165)"

// runCLI runs each experiment the way `nocsprint -workers 1 -json <exp>`
// does and hashes the bytes that command would print. Dispatch goes through
// serve.RunExperiment, which maps a non-fast spec onto the same drivers and
// windows as the CLI; the digest check proves the bytes agree.
func runCLI(t *tracer, cfg config, rep *report) {
	for _, exp := range cfg.experiments {
		rep.Attempted++
		sim, rec := t.sim()
		var result any
		err := t.do("core."+exp, "", "", func() (err error) {
			result, err = serve.RunExperiment(serve.JobSpec{Experiment: exp, Workers: 1}, sim)
			return err
		})
		t.count(rec, fullWindows)
		var out bytes.Buffer
		if err == nil {
			err = t.do("cli.encode", "", "core."+exp, func() error {
				enc := json.NewEncoder(&out)
				enc.SetIndent("", "  ")
				return enc.Encode(map[string]any{"paper": cliPaper, "experiment": exp, "result": result})
			})
		}
		if err != nil {
			rep.Failed++
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", exp, err))
			continue
		}
		t.verdicts(out.Bytes())
		rep.Outputs = append(rep.Outputs, output{Name: exp, SHA256: digest(out.Bytes())})
	}
}

// summarize turns spans and counters into per-layer metrics.
func (t *tracer) summarize(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var allocs uint64
	for _, sp := range t.spans {
		switch {
		case strings.HasPrefix(sp.Name, "core."):
			m[sp.Name+"_s"] += sp.EndS - sp.StartS
			m[sp.Name+"_alloc_mb"] += float64(sp.AllocBytes) / 1e6
			allocs += sp.AllocBytes
		case sp.Name == "cli.encode":
			m["cli.encode_s"] += sp.EndS - sp.StartS
		}
	}
	m["core.alloc_mb"] = float64(allocs) / 1e6
	m["runner.points"] = float64(t.points)

	n := t.noc
	m["noc.sim_cycles"] = float64(n.simCycles)
	m["noc.router_cycles"] = float64(n.routerCycles)
	m["noc.flits_ejected"] = float64(n.flitsEjected)
	if n.simCycles > 0 {
		m["noc.drain_share"] = float64(n.drainCycles) / float64(n.simCycles)
		m["noc.ns_per_cycle"] = m["noc.cpu_s"] * 1e9 / float64(n.simCycles)
	}
	if n.routerCycles > 0 {
		m["noc.ns_per_router_cycle"] = m["noc.cpu_s"] * 1e9 / float64(n.routerCycles)
	}
	if n.verdicts > 0 {
		m["noc.saturated_share"] = float64(n.saturated) / float64(n.verdicts)
	}
}

// layers maps repository packages to the layer names the metrics use;
// packages not listed count as "other".
var layers = map[string]bool{
	"noc": true, "routing": true, "traffic": true, "sprint": true,
	"power": true, "thermal": true, "floorplan": true, "workload": true,
	"cache": true, "fault": true, "core": true, "runner": true,
	"ckpt": true, "serve": true, "obs": true,
}

// nocStages are the simulator pipeline stages of noc.(*Network).Step.
var nocStages = map[string]string{
	"switchAllocation": "noc.sa_share",
	"vcAllocation":     "noc.va_share",
	"routeCompute":     "noc.rc_share",
	"deliverFlits":     "noc.flit_share",
	"deliverCredits":   "noc.credit_share",
	"inject":           "noc.inject_share",
}

const nocPkg = "nocsprint/internal/noc"

// attribute splits profile samples across layers and noc stages. A sample
// belongs to the innermost frame from a repository package, so runtime work
// (allocation, maps) counts against the layer that asked for it; this
// benchmark's own code counts as "bench"; samples with no repository frame
// at all (GC workers, the scheduler, idle HTTP plumbing) are reported as
// "unattributed". Stage shares are cumulative shares of the samples inside
// noc.(*Network).Step.
func attribute(stacks []stack, hz int, m map[string]float64) {
	var total, step int64
	byLayer := map[string]int64{}
	byStage := map[string]int64{}
	for _, st := range stacks {
		total += st.count
		layer := "unattributed"
		for _, fn := range st.funcs {
			pkg := funcPackage(fn)
			if pkg == "main" || strings.HasPrefix(pkg, "nocsprint/perfbench") {
				layer = "bench"
				break
			}
			if name, ok := strings.CutPrefix(pkg, "nocsprint/internal/"); ok {
				layer = "other"
				if layers[name] {
					layer = name
				}
				break
			}
		}
		byLayer[layer] += st.count

		inStep := false
		seen := map[string]bool{}
		for _, fn := range st.funcs {
			method, ok := strings.CutPrefix(fn, nocPkg+".(*Network).")
			if !ok {
				continue
			}
			if method == "Step" {
				inStep = true
			}
			if metric := nocStages[method]; metric != "" && !seen[metric] {
				seen[metric] = true
				byStage[metric] += st.count
			}
		}
		if inStep {
			step += st.count
		}
	}
	m["profile.samples"] = float64(total)
	if total == 0 {
		return
	}
	for layer, n := range byLayer {
		m[layer+".cpu_share"] = float64(n) / float64(total)
	}
	m["noc.cpu_s"] = float64(byLayer["noc"]) / float64(hz)
	m["core.self_s"] = float64(byLayer["core"]) / float64(hz)
	if step > 0 {
		for metric, n := range byStage {
			m[metric] = float64(n) / float64(step)
		}
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// heapAllocs returns the cumulative bytes allocated on the heap. It reads
// MemStats rather than runtime/metrics because only ReadMemStats flushes the
// per-P allocation caches, which short spans would otherwise miss.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

type runtimeCPU struct{ gc, idle, total float64 }

// readRuntime reads the runtime's CPU-class estimates.
func readRuntime() runtimeCPU {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCPU{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
