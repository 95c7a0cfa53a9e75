package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
)

// TestGoldenFig11FastResume is the end-to-end acceptance test for
// checkpoint/resume: the `fig11 -fast` sweep is interrupted mid-flight (the
// sweep context is cancelled once the journal holds half the points), the
// journal is closed and reopened through the crash-recovery path, and the
// resumed sweep — with the invariant checker on — must reproduce the
// pinned golden byte-for-byte.
func TestGoldenFig11FastResume(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is too slow for -short")
	}
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := func() core.Fig11Params { return core.ShapeFig11(goldenSim(true), true) }
	const totalPoints = 8 // 2 levels x 4 rates

	path := filepath.Join(t.TempDir(), "fig11.journal")
	j, err := ckpt.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			if j.Len() >= totalPoints/2 {
				cancel()
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	interrupted := params()
	interrupted.Sim.Ctx = ctx
	interrupted.Sim.Journal = j
	interrupted.Sim.Workers = 2 // bounds in-flight points, so the interrupt lands mid-sweep
	if _, err := core.Fig11Sweep(s, []int{4, 8}, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: err = %v, want context.Canceled", err)
	}
	if n := j.Len(); n < totalPoints/2 || n >= totalPoints {
		t.Fatalf("interrupted journal holds %d points, want a strict partial >= %d", n, totalPoints/2)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	resumedJournal, err := ckpt.Open(path)
	if err != nil {
		t.Fatalf("reopening the interrupted journal: %v", err)
	}
	defer resumedJournal.Close()
	resume := params()
	resume.Sim.Journal = resumedJournal
	series, err := core.Fig11Sweep(s, []int{4, 8}, resume)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "fig11_fast.json", series)
	if resumedJournal.Len() != totalPoints {
		t.Errorf("resumed journal holds %d points, want %d", resumedJournal.Len(), totalPoints)
	}
}
