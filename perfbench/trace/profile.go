package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// stack is one CPU profile sample: its function names, innermost first, and
// how many profiling ticks it stands for.
type stack struct {
	funcs []string
	count int64
}

// readProfile reads the samples of a CPU profile through `go tool pprof
// -raw`, which ships with the toolchain the benchmark builds with.
func readProfile(path string) ([]stack, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseRaw(out)
}

// parseRaw parses the -raw listing: under "Samples:" one line per sample,
// "<count> <nanoseconds>: <location ids>", and under "Locations" each
// location's functions, innermost first, the inlined ones on continuation
// lines. Counts rather than nanoseconds are kept, because the recorded
// period can assume pprof's default rate rather than the rate the trace
// sets.
func parseRaw(raw []byte) ([]stack, error) {
	type sample struct {
		count int64
		locs  []string
	}
	var samples []sample
	locFuncs := map[string][]string{}
	section, loc := "", ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		case strings.TrimSpace(line) == "":
			continue
		}
		f := strings.Fields(line)
		switch section {
		case "Samples:":
			head, ids, ok := strings.Cut(line, ":")
			if !ok {
				continue // the column header
			}
			count, err := strconv.ParseInt(strings.Fields(head)[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile sample %q: %v", line, err)
			}
			samples = append(samples, sample{count, strings.Fields(ids)})
		case "Locations":
			// "<id>: <address> M=<mapping> <function> <file:line:col> s=<line>",
			// or "<function> <file:line:col> s=<line>" for an inlined caller.
			if id, ok := strings.CutSuffix(f[0], ":"); ok {
				loc = id
				locFuncs[loc] = nil
				f = f[2:]
				if len(f) > 0 && strings.HasPrefix(f[0], "M=") {
					f = f[1:]
				}
			}
			if len(f) > 0 && !strings.HasPrefix(f[0], "s=") {
				locFuncs[loc] = append(locFuncs[loc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if section == "" {
		return nil, fmt.Errorf("profile: no samples in pprof -raw output")
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, id := range s.locs {
			st.funcs = append(st.funcs, locFuncs[id]...)
		}
		out = append(out, st)
	}
	return out, nil
}

// funcPackage returns the import path of a Go function symbol such as
// "nocsprint/internal/noc.(*Network).Step" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}
