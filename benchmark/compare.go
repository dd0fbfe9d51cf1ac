package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one (end-to-end metric, workload) pair between two result files.
const (
	same       = "same"
	worse      = "worse"
	better     = "better"
	unresolved = "unresolved" // the runs' own spread exceeds the bound: no call
)

// judge applies one metric's bound to the runs of both sides. The change is
// B's median against A's, signed so that positive is worse; the spread is
// the wider of the two sides' interquartile distances, both as a share of
// A's median.
func judge(sm specMetric, a, b []float64) (verdict string, change, spreadShare float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved, 0, 0
	}
	change = (mb - ma) / ma
	if sm.Better == "higher" {
		change = -change
	}
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	spreadShare = max(qa3-qa1, qb3-qb1) / ma
	switch {
	case spreadShare > sm.Bound:
		return unresolved, change, spreadShare
	case change > sm.Bound:
		return worse, change, spreadShare
	case change < -sm.Bound:
		return better, change, spreadShare
	}
	return same, change, spreadShare
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (end-to-end metric, workload) and reports
// whether any row is worse. Failed proofs on the B side are worse outright.
func compareFiles(out io.Writer, specPath, pathA, pathB string) (anyWorse bool, err error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResultFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "note: the files differ in seed (%d, %d) or window (%g s, %g s)\n", a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	fmt.Fprintf(out, "%-14s %-18s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range sp.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("workload %s is missing from a result file", w.Name)
		}
		for _, r := range rb {
			if r.Failed > 0 || !r.Correct {
				fmt.Fprintf(out, "%-14s %d of %d proofs failed on the B side: %s\n", w.Name, r.Failed, r.Attempted, worse)
				anyWorse = true
			}
		}
		for _, sm := range sp.EndToEnd {
			va, vb := metricValues(ra, sm.Name), metricValues(rb, sm.Name)
			v, change, spr := judge(sm, va, vb)
			fmt.Fprintf(out, "%-14s %-18s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				w.Name, sm.Name, median(va), median(vb), 100*change, 100*spr, 100*sm.Bound, v)
			anyWorse = anyWorse || v == worse
		}
	}
	return anyWorse, nil
}
