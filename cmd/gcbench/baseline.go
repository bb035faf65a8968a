package main

// Baseline recording and comparison. Every registered sweep (sweeps.go)
// shares one JSON envelope and one drift gate: a point type carries its
// configuration identity (Key), bench.VirtualEq compares every field but
// the host wall time, and any virtual drift fails the gate.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
)

// baselineFile is the shared on-disk envelope. Scale is only meaningful for
// sweeps with a workload scale (the others have fixed workload shapes) and
// is omitted when zero, keeping the other sweeps' files unchanged.
type baselineFile[P any] struct {
	Version   int     `json:"version"`
	Scale     float64 `json:"scale,omitempty"`
	GoVersion string  `json:"go_version"`
	Date      string  `json:"date"`
	Points    []P     `json:"points"`
}

// point is what a sweep's point type provides: comparable fields and a
// configuration identity.
type point interface {
	comparable
	Key() string
}

// kind is the typed half of a registry entry: how the sweep measures its
// points under the knobs, and how it renders them.
type kind[P point] struct {
	measure func(r run) ([]P, error)
	render  func(k *knobs, pts []P) string
}

// print measures the sweep and prints its table.
func (kd kind[P]) print(_ *sweep, r run) error {
	pts, err := kd.measure(r)
	if err != nil {
		return err
	}
	fmt.Println(kd.render(r.knobs, pts))
	return nil
}

// write measures the sweep and records it in the envelope.
func (kd kind[P]) write(s *sweep, r run, path string) error {
	pts, err := kd.measure(r)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(baselineFile[P]{
		Version:   s.version(r.knobs),
		Scale:     s.scale,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Points:    pts,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compare parses the stored baseline, re-measures the sweep, and fails on
// any drift in the virtual fields of any point — the CI gate that pins the
// simulation's deterministic results. A baseline recorded at a different
// workload scale fails before any measurement time is spent.
func (kd kind[P]) compare(s *sweep, r run, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var want baselineFile[P]
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if want.Scale != s.scale {
		return fmt.Errorf("%s records scale %g; this binary measures scale %g", path, want.Scale, s.scale)
	}
	got, err := kd.measure(r)
	if err != nil {
		return err
	}
	wantPts := make(map[string]P, len(want.Points))
	for _, p := range want.Points {
		wantPts[p.Key()] = p
	}
	drift := 0
	for _, p := range got {
		w, ok := wantPts[p.Key()]
		if !ok {
			fmt.Fprintf(os.Stderr, "gcbench: %s missing from %s\n", p.Key(), path)
			drift++
			continue
		}
		if !bench.VirtualEq(p, w) {
			fmt.Fprintf(os.Stderr, "gcbench: %s drifted:\n  baseline %+v\n  got      %+v\n", p.Key(), w, p)
			drift++
		}
	}
	if len(got) != len(want.Points) {
		fmt.Fprintf(os.Stderr, "gcbench: point count differs: baseline %d, got %d\n", len(want.Points), len(got))
		drift++
	}
	if drift > 0 {
		return fmt.Errorf("%d %s point(s) drifted vs %s", drift, s.name, path)
	}
	fmt.Printf("gcbench: all %d %s points match %s\n", len(got), s.name, path)
	return nil
}
