// Command nocsprint regenerates every table and figure of the paper's
// evaluation, plus the extension studies, from the experiment registry in
// internal/core.
//
// Usage:
//
//	nocsprint [flags] <experiment> [flags]
//
// Flags are accepted both before and after the experiment name.
//
// Every registry entry prints as a table, or with -json as its typed result
// in a small envelope; -h lists them. fig9 and fig10 name one entry. "all"
// runs every entry once, in order; -workers 0 (the default) fans sweeps
// across all cores. "trace" is the one CLI-only command: it writes a trace
// file and replays it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/mesh"
	"nocsprint/internal/noc"
	"nocsprint/internal/obs"
	"nocsprint/internal/routing"
	"nocsprint/internal/traffic"
)

// options are the command-line knobs shared by every experiment.
type options struct {
	fast        bool
	json        bool
	check       bool
	refstep     bool
	workers     int
	timeout     time.Duration
	checkpoint  string
	resume      bool
	obs         bool
	obsInterval int
	obsOut      string
	httpAddr    string
	traceOut    string
	traceCycles int
	traceRate   float64
	traceSeed   int64

	// Runtime state wired up by execute, not flags: the sweep-level and
	// point-level cancellation contexts, the open checkpoint journal (nil
	// when -checkpoint is not given), the telemetry recorder (nil without
	// -obs), and the sweep-progress callback (nil without -http).
	ctx      context.Context
	abort    context.Context
	journal  *ckpt.Journal
	rec      *obs.Recorder
	progress func(done, total int)
}

// parseArgs parses flags placed before and/or after the experiment name.
// The standard flag package stops at the first positional argument, so a
// single Parse would silently ignore everything after the experiment
// ("nocsprint fig11 -fast" used to run the slow sweep); the remaining
// arguments are re-parsed against the same flag set, and leftover
// positional arguments are an error.
func parseArgs(args []string, output io.Writer) (options, string, error) {
	var o options
	fs := flag.NewFlagSet("nocsprint", flag.ContinueOnError)
	fs.SetOutput(output)
	fs.Usage = func() { usage(output) }
	fs.BoolVar(&o.fast, "fast", false, "shrink simulation windows for quick smoke runs")
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON instead of tables")
	fs.BoolVar(&o.check, "check", false, "enable runtime invariant checking on every simulation")
	fs.BoolVar(&o.refstep, "refstep", false, "run simulations on the reference full-scan stepper (results identical, slower)")
	fs.IntVar(&o.workers, "workers", 0, "parallel sweep workers: 0 = all cores, 1 = serial")
	fs.DurationVar(&o.timeout, "timeout", 0, "cancel the run gracefully after this duration (0 = none)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "directory for the crash-safe sweep journal")
	fs.BoolVar(&o.resume, "resume", false, "skip sweep points already in the -checkpoint journal")
	fs.BoolVar(&o.obs, "obs", false, "attach cycle-sampled telemetry collectors to every simulation")
	fs.IntVar(&o.obsInterval, "obs-interval", 1000, "telemetry sampling interval in cycles (with -obs)")
	fs.StringVar(&o.obsOut, "obs-out", "obs", "directory for per-point telemetry JSONL/CSV files (with -obs)")
	fs.StringVar(&o.httpAddr, "http", "", "serve sweep progress (expvar) and profiling (pprof) on this address, e.g. :8080")
	fs.StringVar(&o.traceOut, "trace-out", "trace.jsonl", "trace experiment: output file for the generated trace")
	fs.IntVar(&o.traceCycles, "trace-cycles", 2000, "trace experiment: injection horizon in cycles")
	fs.Float64Var(&o.traceRate, "trace-rate", 0.1, "trace experiment: injection rate in flits/node/cycle")
	fs.Int64Var(&o.traceSeed, "trace-seed", 1, "trace experiment: RNG seed")
	if err := fs.Parse(args); err != nil {
		return options{}, "", err
	}
	if fs.NArg() < 1 {
		return options{}, "", errors.New("missing experiment name")
	}
	exp := fs.Arg(0)
	if rest := fs.Args()[1:]; len(rest) > 0 {
		// Re-parse with the same flag set so values from the leading parse
		// survive (re-registering the vars would reset them to defaults).
		if err := fs.Parse(rest); err != nil {
			return options{}, "", err
		}
		if fs.NArg() > 0 {
			return options{}, "", fmt.Errorf("unexpected argument %q after experiment %q", fs.Arg(0), exp)
		}
	}
	if o.workers < 0 {
		return options{}, "", fmt.Errorf("-workers %d: must be >= 0", o.workers)
	}
	if o.timeout < 0 {
		return options{}, "", fmt.Errorf("-timeout %v: must be >= 0", o.timeout)
	}
	if o.resume && o.checkpoint == "" {
		return options{}, "", errors.New("-resume requires -checkpoint")
	}
	if o.obsInterval < 1 {
		return options{}, "", fmt.Errorf("-obs-interval %d: must be >= 1", o.obsInterval)
	}
	if o.traceCycles < 1 {
		return options{}, "", fmt.Errorf("-trace-cycles %d: must be >= 1", o.traceCycles)
	}
	return o, exp, nil
}

// Sweep-progress counters exported for -http monitoring: GET /debug/vars on
// the -http address returns them alongside the standard expvar set. They are
// package-level because expvar names are global and main runs exactly one
// experiment per process.
var (
	sweepDone  = expvar.NewInt("sweep_done")
	sweepTotal = expvar.NewInt("sweep_total")
)

func main() {
	opts, exp, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "nocsprint: %v\n", err)
			usage(os.Stderr)
		}
		os.Exit(2)
	}
	if err := execute(exp, opts); err != nil {
		fmt.Fprintf(os.Stderr, "nocsprint: %v\n", err)
		os.Exit(1)
	}
}

// execute wraps one experiment run with the interruption-tolerance layer:
// a sweep-level context cancelled by the first SIGINT/SIGTERM (or -timeout),
// a point-level abort context cancelled by a second signal, and the
// checkpoint journal when -checkpoint is given. The first signal lets
// in-flight sweep points finish and be journaled; the second stops them
// mid-run at cycle granularity.
func execute(exp string, o options) error {
	sweepCtx, cancelSweep := context.WithCancel(context.Background())
	defer cancelSweep()
	abortCtx, cancelAbort := context.WithCancel(context.Background())
	defer cancelAbort()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "nocsprint: interrupted — letting in-flight points finish (interrupt again to abort them)")
		cancelSweep()
		if _, ok := <-sigc; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "nocsprint: second interrupt — aborting in-flight points")
		cancelAbort()
	}()

	if o.timeout > 0 {
		t := time.AfterFunc(o.timeout, func() {
			fmt.Fprintf(os.Stderr, "nocsprint: timeout %v reached — letting in-flight points finish\n", o.timeout)
			cancelSweep()
		})
		defer t.Stop()
	}

	if o.checkpoint != "" {
		j, err := openCheckpoint(o, exp)
		if err != nil {
			return err
		}
		defer j.Close()
		o.journal = j
	}
	o.ctx, o.abort = sweepCtx, abortCtx

	if o.httpAddr != "" {
		// A dedicated mux carrying exactly the monitoring surface — expvar's
		// /debug/vars and pprof's /debug/pprof — so nothing else registered on
		// the default mux can leak onto this listener. Sweep drivers feed the
		// sweep_done/sweep_total counters through NetSimParams.Progress.
		mux := http.NewServeMux()
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// WriteTimeout stays unset: pprof profile/trace stream for a
		// client-chosen duration and would be cut off by one.
		httpSrv := &http.Server{
			Handler:           mux,
			ReadTimeout:       30 * time.Second,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       time.Minute,
			MaxHeaderBytes:    64 << 10,
		}
		ln, err := net.Listen("tcp", o.httpAddr)
		if err != nil {
			return fmt.Errorf("-http %s: %w", o.httpAddr, err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "nocsprint: monitoring on http://%s/debug/vars (pprof at /debug/pprof)\n", ln.Addr())
		go func() { _ = httpSrv.Serve(ln) }()
		o.progress = func(done, total int) {
			sweepDone.Set(int64(done))
			sweepTotal.Set(int64(total))
		}
	}

	if o.obs {
		cfg := core.DefaultConfig()
		rec, err := obs.NewRecorder(obs.Config{
			Interval: o.obsInterval,
			Power:    &obs.PowerModel{Params: cfg.Router, Corner: cfg.Corner},
		})
		if err != nil {
			return fmt.Errorf("-obs: %w", err)
		}
		o.rec = rec
	}

	err := run(os.Stdout, exp, o)
	if err != nil && errors.Is(err, context.Canceled) && o.journal != nil {
		fmt.Fprintf(os.Stderr, "nocsprint: %d completed point(s) saved in %s\n", o.journal.Len(), o.journal.Path())
		fmt.Fprintf(os.Stderr, "nocsprint: resume with: nocsprint %s -checkpoint %s -resume\n", exp, o.checkpoint)
	}
	if o.rec != nil {
		// Telemetry from completed points is written even when the run was
		// cancelled part-way: the collectors that exist are whole.
		if n := len(o.rec.Collectors()); n > 0 {
			if werr := o.rec.WriteFiles(o.obsOut); werr != nil {
				if err == nil {
					err = werr
				}
				fmt.Fprintf(os.Stderr, "nocsprint: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "nocsprint: telemetry for %d point(s) written to %s\n", n, o.obsOut)
			}
		}
	}
	return err
}

// checkpointMeta pins a checkpoint directory to the run shape that wrote it.
// Only parameters that change sweep results belong here; -workers and -check
// are deliberately absent, so a checkpoint taken at one setting resumes
// under any other.
type checkpointMeta struct {
	Experiment string
	Fast       bool
}

// openCheckpoint prepares the journal for one experiment run inside the
// -checkpoint directory. A fresh run truncates; -resume reloads the journal
// after validating the metadata snapshot, and degrades to a fresh run — with
// a warning, never an abort — when the checkpoint is missing, corrupt, or
// belongs to a different run shape.
func openCheckpoint(o options, exp string) (*ckpt.Journal, error) {
	if err := os.MkdirAll(o.checkpoint, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint dir: %w", err)
	}
	jpath := filepath.Join(o.checkpoint, exp+".journal")
	mpath := filepath.Join(o.checkpoint, exp+".meta.json")
	want := checkpointMeta{Experiment: exp, Fast: o.fast}
	if o.resume {
		var have checkpointMeta
		err := ckpt.ReadSnapshot(mpath, &have)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "nocsprint: cannot resume (%v); starting fresh\n", err)
		case have != want:
			fmt.Fprintf(os.Stderr, "nocsprint: checkpoint %s belongs to %q (fast=%v), not this run; starting fresh\n",
				o.checkpoint, have.Experiment, have.Fast)
		default:
			j, err := ckpt.Open(jpath)
			if err == nil {
				fmt.Fprintf(os.Stderr, "nocsprint: resuming: %d completed point(s) in %s\n", j.Len(), jpath)
				return j, nil
			}
			fmt.Fprintf(os.Stderr, "nocsprint: checkpoint journal rejected (%v); starting fresh\n", err)
		}
	}
	if err := ckpt.WriteSnapshot(mpath, want); err != nil {
		return nil, err
	}
	return ckpt.Create(jpath)
}

func usage(w io.Writer) {
	fmt.Fprintf(w, `usage: nocsprint [flags] <experiment> [flags]

flags:
  -fast        shrink simulation windows for quick smoke runs
  -json        emit machine-readable JSON instead of tables
  -check       enable runtime invariant checking: every simulation enforces
               flit conservation, credit bounds, dark-router silence, CDOR
               hop rules, and a deadlock watchdog (results are unchanged;
               violations abort with a network-state snapshot)
  -refstep     run every simulation on the reference full-scan stepper
               instead of the active-work scheduler (results are proven
               bit-identical; this exists for auditing and benchmarking)
  -workers N   parallel sweep workers: 0 = all cores (default), 1 = serial
  -timeout D   cancel the run gracefully after duration D (e.g. 90s, 10m);
               in-flight sweep points finish and are journaled
  -checkpoint DIR
               crash-safe sweeps: journal every completed sweep point to DIR
               (fsynced as it finishes), so an interrupted run loses at most
               the points still in flight
  -resume      with -checkpoint: skip points already journaled; the merged
               output is bit-identical to an uninterrupted run, at any
               -workers count (a corrupt or mismatched checkpoint is
               rejected with a warning and the run starts fresh)
  -obs         attach cycle-sampled telemetry to every simulation: per-window
               flit/utilization/queue/power series plus a typed event
               timeline (results are proven bit-identical with or without)
  -obs-interval N
               telemetry sampling interval in cycles (default 1000)
  -obs-out DIR directory for per-point telemetry files, one .jsonl and one
               .csv per simulation (default obs)
  -http ADDR   serve live monitoring on ADDR (e.g. :8080): sweep progress
               counters at /debug/vars (expvar) and profiling at /debug/pprof
  -trace-out FILE, -trace-cycles N, -trace-rate R, -trace-seed S
               knobs for the trace experiment

signals: the first SIGINT/SIGTERM stops claiming new sweep points, lets
in-flight points finish (journaling them), and exits with a partial-result
summary; a second signal aborts in-flight points at cycle granularity.

experiments:
`)
	for _, e := range core.Experiments() {
		name := e.Name
		if e.Alias != "" {
			name += "/" + e.Alias
		}
		fmt.Fprintf(w, "  %-9s %s\n", name, e.Desc)
	}
	fmt.Fprint(w, `  trace     offline trace generation + JSONL export + deterministic replay
  all       every experiment above in order, except trace
`)
}

// run executes one registry experiment, or every entry in order for "all",
// and prints each result to out: as a table, or under -json as the typed
// result in a small metadata envelope suitable for external plotting.
func run(out io.Writer, name string, o options) error {
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	if name == "trace" {
		if o.json {
			return errors.New(`experiment "trace" has no JSON form`)
		}
		return traceCmd(out, s, o)
	}
	entries := core.Experiments()
	if name != "all" {
		e, ok := core.LookupExperiment(name)
		if !ok {
			usage(os.Stderr)
			return fmt.Errorf("unknown experiment %q", name)
		}
		entries = []core.Experiment{e}
	}
	sim := core.NetSimParams{
		Workers: o.workers, Check: o.check, Reference: o.refstep,
		Ctx: o.ctx, Abort: o.abort, Journal: o.journal,
		Obs: o.rec, Progress: o.progress,
	}
	for _, e := range entries {
		res, err := e.Run(s, sim, o.fast)
		if err != nil {
			return err
		}
		if o.json {
			label := name
			if name == "all" {
				label = e.Name
			}
			err = writeJSON(out, label, res)
		} else {
			err = e.Text(out, s, res)
			if name == "all" {
				fmt.Fprintln(out)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeJSON prints one experiment result in the -json envelope.
func writeJSON(out io.Writer, name string, result any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"paper":      "NoC-Sprinting, DAC 2014 (10.1145/2593069.2593165)",
		"experiment": name,
		"result":     result,
	})
}

// traceCmd generates a deterministic uniform-random injection trace over the
// full mesh, writes it through noc.WriteTraceFile — the path that joins the
// buffered-write flush error with the file's Close error, so a full disk is
// never reported as success — and replays it on a fresh network to verify the
// file round-trips.
func traceCmd(out io.Writer, s *core.Sprinter, o options) error {
	rule := strings.Repeat("=", 72)
	fmt.Fprintf(out, "%s\nTrace: offline generation, JSONL export, deterministic replay\n%s\n", rule, rule)
	cfg := s.Config()
	nodes := make([]int, cfg.NoC.Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	set := traffic.NewSet(nodes)
	events, err := noc.GenerateTrace(set, traffic.NewUniform(len(nodes)), o.traceRate,
		cfg.NoC.PacketLength, o.traceCycles, o.traceSeed)
	if err != nil {
		return err
	}
	if err := noc.WriteTraceFile(o.traceOut, events); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d injection(s) over %d cycles to %s\n", len(events), o.traceCycles, o.traceOut)

	f, err := os.Open(o.traceOut)
	if err != nil {
		return err
	}
	reread, err := noc.ReadTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	net, err := noc.New(cfg.NoC, routing.NewDOR(m), nil)
	if err != nil {
		return err
	}
	res, err := noc.ReplayTrace(net, reread, 10*o.traceCycles+20000)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replay: %d packet(s), avg latency %.1f cycles, drained=%v\n",
		res.Packets, res.AvgLatency, res.Drained)
	return nil
}
