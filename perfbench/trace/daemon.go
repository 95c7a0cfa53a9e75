package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
	"nocsprint/internal/serve"
)

// session is a traced daemon session after it ended: its state directory,
// the job directories recovered at start-up, and the results its jobs
// returned.
type session struct {
	state   string
	before  map[string]bool
	results []any
}

// serveDaemon starts serve.New on the session's state directory (recovery
// included), serves its handler on a loopback port, reports the address
// through cfg.ready, and returns once cfg.stop is closed. An outside client
// drives the jobs, exactly as it drives nocsprintd. Config.Run wraps
// serve.RunExperiment to add the driver span, the telemetry recorder and
// the point counter.
func serveDaemon(t *tracer, cfg config, m map[string]float64) (*session, error) {
	before, err := jobDirs(cfg.state)
	if err != nil {
		return nil, err
	}
	s := &session{state: cfg.state, before: before}
	r0 := time.Now()
	srv, err := serve.New(serve.Config{StateDir: cfg.state, Run: func(spec serve.JobSpec, sim core.NetSimParams) (any, error) {
		traced, rec := t.sim()
		sim.Obs, sim.Progress = traced.Obs, traced.Progress
		var result any
		// The job ID is filled in afterwards from the serve.job span that
		// contains this one (see linkJobs).
		err := t.do("core."+spec.Experiment, "", "serve.job", func() (err error) {
			result, err = serve.RunExperiment(spec, sim)
			return err
		})
		w := fullWindows
		if spec.Fast {
			w = fastWindows
		}
		t.count(rec, w)
		t.mu.Lock()
		s.results = append(s.results, result)
		t.mu.Unlock()
		return result, err
	}})
	if err != nil {
		return nil, err
	}
	m["serve.recover_s"] = time.Since(r0).Seconds()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: t.jobSpans(srv.Handler())}
	go hs.Serve(ln)
	cfg.ready(ln.Addr().String())
	<-cfg.stop
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	srv.Drain()
	srv.Close()
	return s, err
}

// jobSpans wraps the daemon's handler to record one serve.job span per job,
// from the arrival of its POST /v1/jobs until its result has been served.
// The client is a closed loop over one connection, so a job's requests
// never interleave with another job's.
func (t *tracer) jobSpans(h http.Handler) http.Handler {
	var open span
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			t.mu.Lock()
			open = span{Name: "serve.job", StartS: t.since(), AllocBytes: heapAllocs()}
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		if id, ok := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/result"); ok && r.Method == http.MethodGet {
			t.mu.Lock()
			sp := open
			t.mu.Unlock()
			sp.ID, sp.EndS, sp.AllocBytes = id, t.since(), heapAllocs()-sp.AllocBytes
			t.add(sp)
		}
	})
}

// linkJobs gives each driver span of a daemon job the ID of the serve.job
// span that contains it.
func (t *tracer) linkJobs() {
	for i, sp := range t.spans {
		if sp.Parent != "serve.job" {
			continue
		}
		for _, job := range t.spans {
			if job.Name == "serve.job" && job.StartS <= sp.StartS && sp.EndS <= job.EndS {
				t.spans[i].ID = job.ID
				break
			}
		}
	}
}

// finish runs after the profile has stopped: it counts the saturation
// verdicts in the results and times ckpt on what the session wrote.
func (s *session) finish(t *tracer, work string, m map[string]float64) error {
	for _, r := range s.results {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		t.verdicts(b)
	}
	return timeCkpt(s.state, s.before, filepath.Join(work, "ckpt"), m)
}

// timeCkpt replays the journal records and job snapshots the session's jobs
// wrote through ckpt's own entry points, timing each call, and counts the
// records and journal bytes.
func timeCkpt(state string, before map[string]bool, dir string, m map[string]float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all, err := jobDirs(state)
	if err != nil {
		return err
	}
	j, err := ckpt.Create(filepath.Join(dir, "replay.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	var appendMS, writeMS, readMS []float64
	var records, bytesTotal int
	for id := range all {
		if before[id] {
			continue
		}
		jdir := filepath.Join(state, "jobs", id)
		data, err := os.ReadFile(filepath.Join(jdir, "sweep.journal"))
		if err != nil {
			return err
		}
		bytesTotal += len(data)
		recs, err := ckpt.Decode(data)
		if err != nil {
			return fmt.Errorf("job %s journal: %w", id, err)
		}
		for i, r := range recs {
			t0 := time.Now()
			// Keys are unique per job, not across jobs that repeat a spec.
			if err := j.Append(fmt.Sprintf("%s/%d/%s", id, i, r.Key), r.Result); err != nil {
				return err
			}
			appendMS = append(appendMS, ms(time.Since(t0)))
			records++
		}
		for _, name := range []string{"job.json", "result.json"} {
			var raw json.RawMessage
			t0 := time.Now()
			if err := ckpt.ReadSnapshot(filepath.Join(jdir, name), &raw); err != nil {
				return err
			}
			readMS = append(readMS, ms(time.Since(t0)))
			t0 = time.Now()
			if err := ckpt.WriteSnapshot(filepath.Join(dir, id+"-"+name), raw); err != nil {
				return err
			}
			writeMS = append(writeMS, ms(time.Since(t0)))
		}
	}
	m["ckpt.appends"] = float64(records)
	m["ckpt.journal_bytes"] = float64(bytesTotal)
	m["ckpt.append_p50_ms"] = percentile(appendMS, 0.5)
	m["ckpt.append_p90_ms"] = percentile(appendMS, 0.9)
	m["ckpt.snapshot_write_ms"] = percentile(writeMS, 0.5)
	m["ckpt.snapshot_read_ms"] = percentile(readMS, 0.5)
	return nil
}

// jobDirs lists the job directories under a daemon state directory.
func jobDirs(state string) (map[string]bool, error) {
	entries, err := os.ReadDir(filepath.Join(state, "jobs"))
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			out[e.Name()] = true
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
