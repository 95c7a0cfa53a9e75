// Checkpoint/resume demo (DESIGN.md §9): run a fig11-style sweep with a
// crash-safe journal, cancel it midway as an operator's Ctrl-C would, show
// what survived in the journal, then resume and verify the merged output is
// bit-identical to an uninterrupted run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nocsprint/internal/ckpt"
	"nocsprint/internal/core"
)

func main() {
	s, err := core.New(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	levels := []int{4, 8}
	// The `fig11 -fast` sweep: 2 levels x 4 rates.
	params := core.ShapeFig11(core.NetSimParams{}, true)
	const totalPoints = 8

	dir, err := os.MkdirTemp("", "nocsprint-resume")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "fig11.journal")

	// The reference: an uninterrupted sweep.
	clean, err := core.Fig11Sweep(s, levels, params)
	if err != nil {
		log.Fatal(err)
	}

	// Run the same sweep with a journal, and cancel the sweep context once
	// half the points have landed — the moral equivalent of Ctrl-C.
	j, err := ckpt.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for j.Len() < totalPoints/2 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	interrupted := params
	interrupted.Sim.Ctx = ctx
	interrupted.Sim.Journal = j
	interrupted.Sim.Workers = 2
	_, err = core.Fig11Sweep(s, levels, interrupted)
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected the sweep to be cancelled, got %v", err)
	}
	fmt.Printf("interrupted after %d/%d points — journal %s:\n", j.Len(), totalPoints, path)
	if err := j.Close(); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := ckpt.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range recs {
		fmt.Printf("  %s… %d bytes of result\n", r.Key[:12], len(r.Result))
	}

	// Resume: reopen the journal (the crash-recovery path — checksums
	// verified, torn writes rejected) and rerun; journaled points are
	// skipped, the rest computed.
	j, err = ckpt.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer j.Close()
	resume := params
	resume.Sim.Journal = j
	resumed, err := core.Fig11Sweep(s, levels, resume)
	if err != nil {
		log.Fatal(err)
	}

	cleanJSON, _ := json.Marshal(clean)
	resumedJSON, _ := json.Marshal(resumed)
	fmt.Printf("\nresumed: recomputed %d point(s), journal now holds %d\n",
		totalPoints-len(recs), j.Len())
	if string(cleanJSON) != string(resumedJSON) {
		log.Fatal("resumed output differs from the uninterrupted run")
	}
	fmt.Println("resumed output is bit-identical to the uninterrupted run")
}
