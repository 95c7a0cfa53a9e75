package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nocsprint/internal/core"
)

// update regenerates the golden files instead of comparing against them:
//
//	go test ./cmd/nocsprint -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenSim returns the registry's -fast simulation windows, so the goldens
// pin the same numbers `nocsprint -fast` prints. Workers stays parallel on
// purpose: per-point seeding guarantees the output is identical at any
// worker count, and the goldens prove it stays that way.
func goldenSim(check bool) core.NetSimParams {
	return core.ShapeSim(core.NetSimParams{Check: check}, true)
}

// compareGolden marshals got and compares it byte-for-byte against the named
// golden file, or rewrites the file under -update.
func compareGolden(t *testing.T, name string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGoldenBytes(t, name, append(data, '\n'))
}

// compareGoldenBytes compares data byte-for-byte against the named golden
// file, or rewrites the file under -update.
func compareGoldenBytes(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("results drifted from %s — if the change is intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			path, firstDiff(data, want), path)
	}
}

// firstDiff locates the first differing line to keep failures readable.
func firstDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return "line " + itoa(i+1) + ": got " + string(g[i]) + " | want " + string(w[i])
		}
	}
	return "length mismatch: got " + itoa(len(g)) + " lines, want " + itoa(len(w))
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestGoldenFig11Fast pins the `fig11 -fast` sweep: the exact latencies,
// powers, and saturation flags per (level, rate) point. Any change to the
// simulator, routing, seeding, or sweep parallelism that moves a number
// fails loudly here. The sweep also runs with the invariant checker on and
// must match the same golden — the zero-drift acceptance criterion.
func TestGoldenFig11Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(check bool) []core.Fig11Series {
		series, err := core.Fig11Sweep(s, []int{4, 8}, core.ShapeFig11(goldenSim(check), true))
		if err != nil {
			t.Fatal(err)
		}
		return series
	}
	plain := run(false)
	compareGolden(t, "fig11_fast.json", plain)

	checked, err := json.Marshal(run(true))
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, checked) {
		t.Fatal("invariant checker perturbed the fig11 sweep results")
	}
}

// TestGoldenSensitivityPoint pins one sensitivity-sweep configuration (the
// Table 1 router: 4 VCs, 4-flit buffers), checked and unchecked.
func TestGoldenSensitivityPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	plain, err := core.SensitivityPoint(4, 4, goldenSim(false))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "sensitivity_point.json", plain)

	checked, err := core.SensitivityPoint(4, 4, goldenSim(true))
	if err != nil {
		t.Fatal(err)
	}
	if plain != checked {
		t.Fatalf("invariant checker perturbed the sensitivity point:\nwithout: %+v\nwith:    %+v", plain, checked)
	}
}

// TestGoldenFig11ReferenceStepper replays the fig11 -fast sweep on the
// reference full-scan stepper and compares it against the same golden file
// the optimized sweep is pinned to: the committed goldens prove the two
// pipelines are byte-identical end to end, through the CLI's own JSON
// encoding.
func TestGoldenFig11ReferenceStepper(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	if *update {
		t.Skip("goldens are written by the optimized sweep; nothing to update here")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim := goldenSim(true)
	sim.Reference = true
	series, err := core.Fig11Sweep(s, []int{4, 8}, core.ShapeFig11(sim, true))
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fig11_fast.json", series)
}

// TestGoldenTopology pins the `topology -fast` comparison: zero-load
// latency, saturation rate, and low-load power for the mesh, torus, and
// ring-circulant candidates, checked and unchecked. The mesh row doubles as
// a zero-drift witness for the topology abstraction: it runs through
// noc.NewTopo and the generic port-indexed fabric, yet must keep producing
// the numbers the pre-abstraction simulator did.
func TestGoldenTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(check bool) []core.TopoRow {
		rows, err := s.TopologyStudy(core.ShapeTopology(goldenSim(check), true))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	plain := run(false)
	compareGolden(t, "topology_fast.json", plain)

	checked, err := json.Marshal(run(true))
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, checked) {
		t.Fatal("invariant checker perturbed the topology study results")
	}
}

// TestGoldenAllFastText pins the text every registry renderer prints:
// `nocsprint all -fast` runs each entry once, in registry order, and its
// stdout must match the golden byte for byte.
func TestGoldenAllFastText(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var out bytes.Buffer
	if err := run(&out, "all", options{fast: true, workers: 2}); err != nil {
		t.Fatal(err)
	}
	compareGoldenBytes(t, "all_fast.txt", out.Bytes())
}
