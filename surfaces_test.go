package nocsprint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSurfacesRun builds every program under examples/ plus the auxiliary
// nocsim and thermsim CLIs, and runs each once in a fresh working
// directory: each must exit 0 and print something.
func TestSurfacesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example and auxiliary CLI")
	}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/...", "./cmd/nocsim", "./cmd/thermsim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	runs := [][]string{
		{"nocsim", "-level", "8", "-pattern", "uniform", "-rate", "0.25"},
		{"thermsim", "-mode", "phases"},
		{"thermsim", "-mode", "timeline"},
		{"thermsim", "-mode", "heatmap"},
	}
	for _, ex := range examples {
		runs = append(runs, []string{filepath.Base(filepath.Dir(ex))})
	}
	for _, args := range runs {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "TMPDIR="+dir)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("exit: %v", err)
			}
			if len(out) == 0 {
				t.Fatal("no output on stdout")
			}
		})
	}
}
