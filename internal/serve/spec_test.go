package serve

import (
	"strings"
	"testing"
	"time"

	"nocsprint/internal/core"
)

func TestParseSpecValid(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
		"experiment": "fig11", "fast": true, "check": true,
		"workers": 2, "seed": 7, "timeout": "90s",
		"retry": {"max_attempts": 4, "base_delay": "50ms", "max_delay": "2s"}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiment != "fig11" || !spec.Fast || !spec.Check || spec.Workers != 2 || spec.Seed != 7 {
		t.Errorf("spec fields lost: %+v", spec)
	}
	if spec.Timeout.Std() != 90*time.Second {
		t.Errorf("timeout = %v, want 90s", spec.Timeout)
	}
	if spec.Retry == nil || spec.Retry.MaxAttempts != 4 ||
		spec.Retry.BaseDelay.Std() != 50*time.Millisecond || spec.Retry.MaxDelay.Std() != 2*time.Second {
		t.Errorf("retry spec lost: %+v", spec.Retry)
	}
}

// TestParseSpecStrict: every malformed submission must be rejected with an
// error naming what's wrong — a typo can never silently select defaults.
func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"experiment":"fig11","workres":2}`, `unknown field "workres"`},
		{"missing experiment", `{"fast":true}`, `field "experiment": required`},
		{"unknown experiment", `{"experiment":"fig99"}`, `unknown experiment "fig99"`},
		{"negative workers", `{"experiment":"fig11","workers":-1}`, `field "workers"`},
		{"negative timeout", `{"experiment":"fig11","timeout":"-5s"}`, `field "timeout"`},
		{"numeric timeout", `{"experiment":"fig11","timeout":90}`, `duration string`},
		{"bad duration", `{"experiment":"fig11","timeout":"ninety"}`, `invalid duration`},
		{"zero retry budget", `{"experiment":"fig11","retry":{"max_attempts":0}}`, `retry.max_attempts`},
		{"huge retry budget", `{"experiment":"fig11","retry":{"max_attempts":99}}`, `retry.max_attempts`},
		{"inverted delays", `{"experiment":"fig11","retry":{"max_attempts":3,"base_delay":"10s","max_delay":"1s"}}`, `exceeds max_delay`},
		{"wrong type", `{"experiment":"fig11","workers":"two"}`, `field "workers"`},
		{"trailing data", `{"experiment":"fig11"} {"more":1}`, `trailing data`},
		{"not json", `experiment=fig11`, `spec:`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("spec %s was accepted", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestExperimentsListedSorted requires the daemon's experiment list to be
// exactly the core registry's names and aliases, sorted, and every one of
// them to pass spec validation.
func TestExperimentsListedSorted(t *testing.T) {
	exps := Experiments()
	registry := core.ExperimentNames()
	if len(exps) != len(registry) {
		t.Fatalf("Experiments() lists %d, registry has %d", len(exps), len(registry))
	}
	for i := 1; i < len(exps); i++ {
		if exps[i-1] >= exps[i] {
			t.Errorf("Experiments() not sorted at %d: %s >= %s", i, exps[i-1], exps[i])
		}
	}
	for _, name := range registry {
		if err := (JobSpec{Experiment: name}).Validate(); err != nil {
			t.Errorf("registry experiment %q rejected: %v", name, err)
		}
	}
	for _, want := range []string{"fig10", "topology", "table1", "controller"} {
		if _, err := ParseSpec(strings.NewReader(`{"experiment":"` + want + `"}`)); err != nil {
			t.Errorf("experiment %q rejected: %v", want, err)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"2m30s"`)); err != nil {
		t.Fatal(err)
	}
	b, err := d.MarshalJSON()
	if err != nil || string(b) != `"2m30s"` {
		t.Errorf("round trip = %s, %v", b, err)
	}
}
