// Command helix-benchdiff is the CI perf-regression gate: it compares a
// fresh dispatch-ablation run (`helix-bench -ablation dispatch -json ...`)
// against the committed baseline (BENCH_baseline.json) and fails — exit
// code 1 — if any shape's work-stealing wall time regressed beyond the
// tolerance.
//
// Both documents carry best-of-3 walls per shape (helix-bench takes the
// minimum across repetitions), so a single noisy run on a shared CI host
// does not trip the gate; the tolerance (default 25%) absorbs the rest of
// the host-to-host spread. Sleep-based shapes dominate the list and are
// largely machine-independent; the busy-loop contention shape is the most
// host-sensitive, which is exactly why it is worth gating — a real
// dispatch-path regression shows there first.
//
// Shapes named "serve-*" are end-to-end macro-benchmarks (median-of-3
// rather than min — see runServeLoad in helix-bench) and gate at double
// the tolerance; for them the sharp check is functional: a baseline with
// cross-session dedup hits whose current run reports zero fails the gate
// regardless of wall time.
//
// Usage:
//
//	helix-benchdiff -baseline BENCH_baseline.json -current BENCH_current.json
//	helix-benchdiff -baseline BENCH_baseline.json -current BENCH_current.json -tolerance 40
//
// Shapes present in the baseline but missing from the current run fail the
// gate (a silently dropped benchmark is a regression of coverage); new
// shapes in the current run are reported but do not fail — they gate once
// a baseline containing them is committed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/exec"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline dispatch-ablation JSON")
	currentPath := flag.String("current", "", "fresh dispatch-ablation JSON to compare against the baseline")
	tolerance := flag.Float64("tolerance", 25, "maximum allowed wall-time regression per shape, in percent")
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "helix-benchdiff: -current is required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := readReport(*baselinePath)
	if err != nil {
		fatal(err)
	}
	current, err := readReport(*currentPath)
	if err != nil {
		fatal(err)
	}
	if failed := diff(os.Stdout, baseline, current, *tolerance); failed {
		fmt.Fprintf(os.Stderr, "helix-benchdiff: wall regression beyond %.0f%% against %s\n", *tolerance, *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no shape regressed beyond %.0f%% (baseline %s, workers %d)\n",
		*tolerance, *baselinePath, baseline.Workers)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "helix-benchdiff:", err)
	os.Exit(1)
}

func readReport(path string) (*bench.DispatchReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.DispatchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	// Schema 1 (pre-consolidation, no "schema" field — it reads as 0),
	// schema 2 and schema 3 (adds the in-flight dedup counters, which read
	// as zero from older reports and merely skip that gate) differ only in
	// counter layout; the wall times this gate compares parse identically
	// from all of them, so either side may be any version. A higher
	// version is from a future writer and refused.
	if rep.Schema > exec.ReportSchemaVersion {
		return nil, fmt.Errorf("%s: schema %d is newer than this reader understands (max %d)", path, rep.Schema, exec.ReportSchemaVersion)
	}
	if len(rep.Shapes) == 0 {
		return nil, fmt.Errorf("%s: no shapes (not a dispatch-ablation report?)", path)
	}
	return &rep, nil
}

// diff prints the per-shape comparison and reports whether any shape
// regressed beyond tolerance percent.
func diff(w *os.File, baseline, current *bench.DispatchReport, tolerance float64) bool {
	curByShape := make(map[string]bench.DispatchShapeEntry, len(current.Shapes))
	for _, s := range current.Shapes {
		curByShape[s.Shape] = s
	}
	seen := make(map[string]bool, len(baseline.Shapes))
	failed := false
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %9s\n", "shape", "metric", "baseline", "current", "delta")
	for _, base := range baseline.Shapes {
		seen[base.Shape] = true
		cur, ok := curByShape[base.Shape]
		if !ok {
			fmt.Fprintf(w, "%-16s %-12s %12s %12s %9s\n", base.Shape, "-", "-", "MISSING", "FAIL")
			failed = true
			continue
		}
		// Serve shapes are end-to-end macro-benchmarks (HTTP, real store
		// I/O, concurrent clients): run-to-run spread is inherently wider
		// than the sleep-based micro shapes, so their wall gate uses twice
		// the tolerance. The sharper gate for them is functional, below —
		// cross-session dedup must not silently stop firing.
		shapeTol := tolerance
		if strings.HasPrefix(base.Shape, "serve-") {
			shapeTol = tolerance * 2
		}
		b, c := base.WorkSteal, cur.WorkSteal
		delta := 0.0
		if b.WallMS > 0 {
			delta = (c.WallMS/b.WallMS - 1) * 100
		}
		verdict := ""
		if delta > shapeTol {
			verdict = "  FAIL"
			failed = true
		}
		fmt.Fprintf(w, "%-16s %-12s %10.2fms %10.2fms %+8.1f%%%s\n",
			base.Shape, "worksteal", b.WallMS, c.WallMS, delta, verdict)
		// Functional dedup gates: a baseline that recorded dedup — across
		// sessions (planned loads of foreign bytes) or in flight (the
		// single-flight registry collapsing simultaneous identical work) —
		// whose current run reports zero means the sharing machinery
		// silently stopped firing, whatever the wall times say.
		for _, gate := range []struct {
			name      string
			base, cur int64
		}{
			{"dedup-hits", b.CrossSessionHits, c.CrossSessionHits},
			{"inflight-hits", b.InflightDedupHits, c.InflightDedupHits},
		} {
			if gate.base > 0 && gate.cur == 0 {
				fmt.Fprintf(w, "%-16s %-12s %12d %12d %9s\n", base.Shape, gate.name, gate.base, gate.cur, "FAIL")
				failed = true
			}
		}
	}
	for _, s := range current.Shapes {
		if !seen[s.Shape] {
			fmt.Fprintf(w, "%-16s %-12s %12s %10.2fms %9s\n", s.Shape, "worksteal", "(new)", s.WorkSteal.WallMS, "-")
		}
	}
	return failed
}
