// Command trace is the benchmark's traced run. It executes one workload in
// process, with the same experiments or job sequence as the untraced run,
// and splits host time across the repository's modules:
//
//   - a span around every experiment driver call and every daemon job, with
//     the heap bytes allocated inside it (runtime.MemStats);
//   - exact per-network simulator counters from the program's own telemetry
//     hook, core.NetSimParams.Obs;
//   - sweep points counted through core.NetSimParams.Progress;
//   - direct timings of ckpt.Journal.Append, ckpt.WriteSnapshot and
//     ckpt.ReadSnapshot on the records the daemon jobs wrote;
//   - a CPU profile, attributed by package and by simulator stage.
//
// Nothing is added inside the program: every hook used here is public API.
// For the CLI workloads the outputs (the JSON bytes nocsprint -json would
// print) are hashed so the caller can check that tracing changed no result.
// For daemon_jobs the trace serves the daemon's job API on a loopback port
// and logs "job API on http://ADDR/v1/jobs" to standard error; the caller's
// own client drives and checks the jobs, and SIGTERM ends the session.
// Spans stay in memory and are written to -work/spans.json at the end.
//
// Usage:
//
//	trace -workload fig11|dark_lowload -experiments fig2,fig3,... -work DIR
//	trace -workload daemon_jobs -state DIR -work DIR
//
// The report is one JSON object on standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	var cfg config
	var experiments string
	flag.StringVar(&cfg.workload, "workload", "", "fig11, dark_lowload or daemon_jobs")
	flag.StringVar(&experiments, "experiments", "", "CLI workloads: comma-separated JSON experiments to run")
	flag.StringVar(&cfg.state, "state", "", "daemon_jobs: state directory to start on, used in place")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for the profile, journal timings and spans.json")
	flag.Parse()
	if err := cfg.load(experiments); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(2)
	}
	// The handler is in place before the job API serves, so a SIGTERM
	// right after start-up still ends the session cleanly.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	stop := make(chan struct{})
	go func() { <-sigc; close(stop) }()
	cfg.stop = stop
	cfg.ready = func(addr string) { fmt.Fprintf(os.Stderr, "trace: job API on http://%s/v1/jobs\n", addr) }

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

func (c *config) load(experiments string) error {
	if c.work == "" {
		return fmt.Errorf("-work is required")
	}
	switch c.workload {
	case "fig11", "dark_lowload":
		if experiments == "" {
			return fmt.Errorf("-experiments is required for %s", c.workload)
		}
		c.experiments = strings.Split(experiments, ",")
	case "daemon_jobs":
		if c.state == "" {
			return fmt.Errorf("-state is required for daemon_jobs")
		}
	default:
		return fmt.Errorf("unknown -workload %q", c.workload)
	}
	return os.MkdirAll(filepath.Clean(c.work), 0o755)
}
