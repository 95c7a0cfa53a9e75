package main

import (
	"bufio"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":8089" || o.state != "nocsprintd-state" || o.queueCap != 16 ||
		o.concurrency != 1 || o.retryAttempts != 3 {
		t.Errorf("defaults = %+v", o)
	}
	if o.retryBase != 100*time.Millisecond || o.retryMax != 5*time.Second ||
		o.abortGrace != 30*time.Second || o.drainTimeout != 2*time.Minute {
		t.Errorf("duration defaults = %+v", o)
	}
}

func TestParseArgsOverrides(t *testing.T) {
	o, err := parseArgs([]string{
		"-addr", "127.0.0.1:0", "-state", "/tmp/s", "-queue", "4",
		"-concurrency", "2", "-job-timeout", "10m", "-retry-attempts", "1",
		"-max-body", "4096",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:0" || o.queueCap != 4 || o.concurrency != 2 ||
		o.jobTimeout != 10*time.Minute || o.retryAttempts != 1 || o.maxBody != 4096 {
		t.Errorf("overrides lost: %+v", o)
	}
}

func TestParseArgsRejectsBadValues(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"zero queue", []string{"-queue", "0"}, "-queue"},
		{"zero concurrency", []string{"-concurrency", "0"}, "-concurrency"},
		{"zero retry budget", []string{"-retry-attempts", "0"}, "-retry-attempts"},
		{"negative timeout", []string{"-job-timeout", "-1s"}, "durations"},
		{"zero body limit", []string{"-max-body", "0"}, "-max-body"},
		{"positional argument", []string{"stray"}, "unexpected argument"},
		{"unknown flag", []string{"-bogus"}, "bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgs(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestSIGTERMRightAfterHealthyDrains builds the daemon, sends SIGTERM the
// moment /healthz first answers 200, and requires a graceful drain: exit
// status 0 and the final "drained; state preserved" log line. The signal
// handler must be installed before the daemon starts serving, or this
// SIGTERM kills the process undrained.
func TestSIGTERMRightAfterHealthyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "nocsprintd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", filepath.Join(dir, "state"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addrc := make(chan string, 1)
	logc := make(chan string, 1)
	go func() {
		var log strings.Builder
		listening := regexp.MustCompile(`job API on http://(\S+)/v1/jobs`)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			log.WriteString(sc.Text() + "\n")
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
			}
		}
		logc <- log.String()
	}()

	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never logged its listen address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never answered 200 (last error %v)", err)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	logText := <-logc
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, logText)
	}
	if !strings.Contains(logText, "drained; state preserved") {
		t.Errorf("no drain line in the daemon log:\n%s", logText)
	}
}
