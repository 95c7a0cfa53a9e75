// Command spawn runs one program and reports what the kernel measured for it:
// wall time from exec to exit, user and system CPU, peak resident set size,
// and involuntary context switches.
//
// Usage:
//
//	spawn [-out FILE] -- program [args...]
//
// The program's standard output goes to FILE (discarded without -out) and its
// standard error is inherited. spawn prints "pid N" as soon as the program
// has started, then one JSON line with the measurements once it has exited.
// It exits 0 whenever it could run the program; the program's own exit code
// is in the JSON line.
//
// The benchmark launches programs through spawn rather than from Python
// because a child's peak RSS can never read lower than its parent's at fork
// time: Python's ~14 MB would hide the program's own 8-13 MB, while spawn
// itself stays near 2 MB.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

type result struct {
	Exit     int     `json:"exit"`
	WallS    float64 `json:"wall_s"`
	UserS    float64 `json:"user_s"`
	SysS     float64 `json:"sys_s"`
	MaxRSSKB int64   `json:"maxrss_kb"`
	NivCSW   int64   `json:"nivcsw"`
}

func main() {
	out := flag.String("out", "", "file receiving the program's standard output (default: discarded)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: spawn [-out FILE] -- program [args...]")
		os.Exit(2)
	}
	if err := run(*out, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "spawn: %v\n", err)
		os.Exit(1)
	}
}

func run(out string, argv []string) error {
	path, err := exec.LookPath(argv[0])
	if err != nil {
		return err
	}
	stdin, err := os.Open(os.DevNull)
	if err != nil {
		return err
	}
	defer stdin.Close()
	stdoutPath := os.DevNull
	if out != "" {
		stdoutPath = out
	}
	stdout, err := os.Create(stdoutPath)
	if err != nil {
		return err
	}
	defer stdout.Close()

	start := time.Now()
	pid, err := syscall.ForkExec(path, argv, &syscall.ProcAttr{
		Env:   os.Environ(),
		Files: []uintptr{stdin.Fd(), stdout.Fd(), os.Stderr.Fd()},
	})
	if err != nil {
		return fmt.Errorf("starting %s: %w", path, err)
	}
	fmt.Printf("pid %d\n", pid)

	var ws syscall.WaitStatus
	var ru syscall.Rusage
	for {
		_, err = syscall.Wait4(pid, &ws, 0, &ru)
		if err != syscall.EINTR {
			break
		}
	}
	wall := time.Since(start)
	if err != nil {
		return fmt.Errorf("waiting for %s: %w", path, err)
	}
	exit := ws.ExitStatus()
	if ws.Signaled() {
		exit = 128 + int(ws.Signal())
	}
	return json.NewEncoder(os.Stdout).Encode(result{
		Exit:     exit,
		WallS:    wall.Seconds(),
		UserS:    time.Duration(ru.Utime.Nano()).Seconds(),
		SysS:     time.Duration(ru.Stime.Nano()).Seconds(),
		MaxRSSKB: ru.Maxrss,
		NivCSW:   ru.Nivcsw,
	})
}
