package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocsprint/internal/core"
	"nocsprint/internal/obs"
)

// obsGoldenRecorder builds the recorder exactly the way the CLI's -obs flag
// does, so the golden stream pins what `fig11 -fast -obs` actually writes.
func obsGoldenRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	cfg := core.DefaultConfig()
	rec, err := obs.NewRecorder(obs.Config{
		Interval: 1000,
		Power:    &obs.PowerModel{Params: cfg.Router, Corner: cfg.Corner},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestGoldenFig11FastWithObs is the golden-layer leg of the telemetry
// zero-drift guarantee plus the pinned JSONL stream: the instrumented
// `fig11 -fast` sweep must reproduce the same fig11_fast.json golden the
// uninstrumented sweep is pinned to, and one representative collector's
// JSONL output is itself a golden file — its byte layout (field order
// included) is the format external consumers parse.
//
// Regenerate after an intentional format change with:
//
//	go test ./cmd/nocsprint -run TestGoldenFig11FastWithObs -update
func TestGoldenFig11FastWithObs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := obsGoldenRecorder(t)
	sim := goldenSim(true)
	sim.Obs = rec
	series, err := core.Fig11Sweep(s, []int{4, 8}, core.ShapeFig11(sim, true))
	if err != nil {
		t.Fatal(err)
	}
	// Zero drift at the golden layer: telemetry must not move a single byte
	// of the pinned sweep results.
	compareGolden(t, "fig11_fast.json", series)

	const label = "fig11/l4/r00/noc"
	var col *obs.Collector
	for _, c := range rec.Collectors() {
		if c.Label() == label {
			col = c
			break
		}
	}
	if col == nil {
		t.Fatalf("sweep produced no collector labelled %q", label)
	}
	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	checkObsStream(t, buf.Bytes())

	path := filepath.Join("testdata", "golden", "obs_fig11_l4_r00_noc.jsonl")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("telemetry stream drifted from %s — if intentional, regenerate with -update.\n%s",
			path, firstDiff(buf.Bytes(), want))
	}
}

// checkObsStream asserts the structural invariants every collector stream
// promises: a meta line first, stable field order per record type, and
// monotonically increasing sample cycles.
func checkObsStream(t *testing.T, stream []byte) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var prevSample int64
	for i := 0; sc.Scan(); i++ {
		line := sc.Text()
		switch {
		case i == 0:
			if !strings.HasPrefix(line, `{"type":"meta","label":`) {
				t.Fatalf("line 1 is not a meta record: %s", line)
			}
			continue
		case strings.HasPrefix(line, `{"type":"sample","cycle":`):
			var s obs.Sample
			if err := json.Unmarshal([]byte(line), &s); err != nil {
				t.Fatalf("line %d does not decode as a sample: %v", i+1, err)
			}
			if s.Cycle <= prevSample {
				t.Fatalf("line %d: sample cycle %d not increasing (prev %d)", i+1, s.Cycle, prevSample)
			}
			prevSample = s.Cycle
		case strings.HasPrefix(line, `{"type":"event","cycle":`):
			// Field order pinned by the prefix; kind must decode strictly.
			var e obs.Event
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("line %d does not decode as an event: %v", i+1, err)
			}
		default:
			t.Fatalf("line %d has unknown type or wrong leading fields: %s", i+1, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if prevSample == 0 {
		t.Fatal("stream carries no samples")
	}
}
