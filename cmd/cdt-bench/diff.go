package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The -baseline mode: after running the micro-benchmark set, compare
// the fresh trajectory against a previously archived one and fail the
// run when a case regressed past the threshold. CI runs the baseline
// build and the PR build on the SAME runner back to back — comparing
// ns/op numbers produced by different machines is meaningless.

// loadTrajectory reads a -json trajectory file back in.
func loadTrajectory(path string) ([]BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var results []BenchResult
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	return results, nil
}

// Noise floors: a case below these absolutes can blow past any
// percentage threshold on scheduler jitter alone, so regressions are
// only counted when the delta is material in absolute terms too.
const (
	minNsDelta     = 20.0 // ns/op
	minAllocsDelta = 2    // allocs/op
)

// diffAgainstBaseline compares fresh results to the archived
// trajectory, prints one line per case, and returns an error naming
// every case whose time or allocs/op regressed more than pct percent
// (and past the noise floor). The time compared is min_ns_per_op when
// both sides carry it, which holds a disk-bound case to its code and
// not to the device's jitter, and ns_per_op (the median) otherwise.
// Cases present on only one side are reported but never fail the run:
// the benchmark set is allowed to grow and shrink across PRs.
func diffAgainstBaseline(results []BenchResult, baselinePath string, pct float64) error {
	base, err := loadTrajectory(baselinePath)
	if err != nil {
		return err
	}
	byName := make(map[string]BenchResult, len(base))
	for _, b := range base {
		byName[b.Name] = b
	}

	var regressions []string
	fmt.Printf("\nvs baseline %s (fail threshold %+.0f%%):\n", baselinePath, pct)
	fmt.Printf("%-28s %14s %14s %9s %12s %12s  %s\n",
		"benchmark", "base ns", "new ns", "Δns", "base allocs", "new allocs", "time compared")
	seen := make(map[string]bool, len(results))
	for _, r := range results {
		seen[r.Name] = true
		b, ok := byName[r.Name]
		if !ok {
			fmt.Printf("%-28s %14s %14.1f %9s %12s %12d  (new case)\n",
				r.Name, "-", r.NsPerOp, "-", "-", r.AllocsPerOp)
			continue
		}
		stat, baseNs, newNs := "ns/op", b.NsPerOp, r.NsPerOp
		if b.MinNsPerOp > 0 && r.MinNsPerOp > 0 {
			stat, baseNs, newNs = "min ns/op", b.MinNsPerOp, r.MinNsPerOp
		}
		deltaPct := 0.0
		if baseNs > 0 {
			deltaPct = (newNs - baseNs) / baseNs * 100
		}
		fmt.Printf("%-28s %14.1f %14.1f %+8.1f%% %12d %12d  %s\n",
			r.Name, baseNs, newNs, deltaPct, b.AllocsPerOp, r.AllocsPerOp, stat)
		if deltaPct > pct && newNs-baseNs > minNsDelta {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s %+.1f%% (%.1f -> %.1f)", r.Name, stat, deltaPct, baseNs, newNs))
		}
		if d := r.AllocsPerOp - b.AllocsPerOp; d >= minAllocsDelta &&
			float64(d) > float64(b.AllocsPerOp)*pct/100 {
			regressions = append(regressions,
				fmt.Sprintf("%s: allocs/op %d -> %d", r.Name, b.AllocsPerOp, r.AllocsPerOp))
		}
	}
	for _, b := range base {
		if !seen[b.Name] {
			fmt.Printf("%-28s %14.1f %14s %9s %12d %12s  (case removed)\n",
				b.Name, b.NsPerOp, "-", "-", b.AllocsPerOp, "-")
		}
	}
	if len(regressions) > 0 {
		msg := "performance regressions past the threshold:"
		for _, r := range regressions {
			msg += "\n  " + r
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Println("no regressions past the threshold")
	return nil
}
