package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nocsprint/internal/core"
	"nocsprint/internal/serve"
)

// TestRegistryCLIMatchesDaemon runs every registry name, aliases included,
// through the CLI's -json path and as a real daemon job over HTTP at the
// same fast/seed/workers, and requires the CLI envelope's result and the
// job's result bytes to be identical after json.Compact. Every name must be
// accepted by the daemon: a front end that drifts from the registry fails
// here.
func TestRegistryCLIMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	srv, err := serve.New(serve.Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, name := range core.ExperimentNames() {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, name, options{fast: true, json: true, workers: 2}); err != nil {
				t.Fatalf("CLI: %v", err)
			}
			var env struct {
				Experiment string
				Result     json.RawMessage
			}
			if err := json.Unmarshal(out.Bytes(), &env); err != nil {
				t.Fatalf("CLI envelope: %v", err)
			}
			if env.Experiment != name {
				t.Errorf("CLI envelope names %q, want %q", env.Experiment, name)
			}
			job := daemonResult(t, ts.URL, fmt.Sprintf(`{"experiment":%q,"fast":true,"workers":2}`, name))

			var cli, daemon bytes.Buffer
			if err := json.Compact(&cli, env.Result); err != nil {
				t.Fatal(err)
			}
			if err := json.Compact(&daemon, job); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cli.Bytes(), daemon.Bytes()) {
				t.Fatalf("CLI and daemon results differ:\ncli:    %.300s\ndaemon: %.300s", cli.Bytes(), daemon.Bytes())
			}
		})
	}
}

// daemonResult submits spec, waits for the job to finish, and returns its
// raw result bytes.
func daemonResult(t *testing.T, api, spec string) []byte {
	t.Helper()
	var job struct{ ID, State, Error string }
	get := func(url string, v any) []byte {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %s (%v)", url, resp.StatusCode, b, err)
		}
		if v != nil {
			if err := json.Unmarshal(b, v); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	resp, err := http.Post(api+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("daemon rejected %s: %d %s", spec, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Minute); job.State != "done"; time.Sleep(20 * time.Millisecond) {
		if job.State == "failed" || job.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("job %s ended in state %q: %s", job.ID, job.State, job.Error)
		}
		get(api+"/v1/jobs/"+job.ID, &job)
	}
	return get(api+"/v1/jobs/"+job.ID+"/result", nil)
}
