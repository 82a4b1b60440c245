package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// verdict is -compare's reading of one metric on one workload.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// worsening is how much worse b reads than a — positive when b is lower and
// higher is better, or higher when lower is better — as a share of a, or in
// the metric's own unit when its bound is absolute.
func worsening(d decl, a, b float64) float64 {
	diff := b - a
	if d.Better == "higher" {
		diff = a - b
	}
	if d.abs {
		return diff
	}
	return diff / a
}

// judge compares the change's metric b with the baseline's a, each the
// median of its document's runs with their extremes. When either side's
// run-to-run spread is wider than the bound, the pair is unresolved unless
// every run of one side reads better than every run of the other; otherwise
// b is worse when its median is worse than a's by more than the bound.
func judge(d decl, a, b metric) verdict {
	spread := func(m metric) float64 {
		if d.abs {
			return m.Max - m.Min
		}
		return (m.Max - m.Min) / m.Value
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if math.Max(spread(a), spread(b)) > d.Bound && overlap {
		return unresolved
	}
	if worsening(d, a.Value, b.Value) > d.Bound {
		return worse
	}
	return ok
}

// acrossRuns summarizes one metric over a workload's end-to-end runs: the
// median of the runs' values with their extremes. found is false when no run
// reports the metric; a metric only some runs report is an error.
func acrossRuns(runs []*report, name string) (m metric, found bool, err error) {
	var values []float64
	for _, r := range runs {
		if v, has := r.Metrics[name]; has {
			values = append(values, v.Value)
		}
	}
	if len(values) == 0 {
		return metric{}, false, nil
	}
	if len(values) != len(runs) {
		return metric{}, false, fmt.Errorf("%s: %d of %d runs report %s", runs[0].Workload, len(values), len(runs), name)
	}
	return median(values, ""), true, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians over
// the documents' runs, B against A with its base, the bound and the verdict,
// any run whose checks failed, and any traced run outside one of its timing
// limits. The exit code is 1 if anything is worse or incorrect.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	var a, b document
	if err := readJSON(pathA, &a); err != nil {
		return 0, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return 0, err
	}
	byName := map[string]workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	code := 0
	fmt.Fprintf(w, "%-20s %-15s %12s %12s  %-28s %6s  %s\n", "workload", "metric", "A", "B", "B against A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if len(ra.EndToEnd) == 0 || len(rb.EndToEnd) == 0 {
			return 0, fmt.Errorf("%s: both documents need its end-to-end runs", ra.Name)
		}
		for _, d := range slices.Concat(endToEnd, alsoJudged) {
			ma, inA, err := acrossRuns(ra.EndToEnd, d.Name)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", pathA, err)
			}
			mb, inB, err := acrossRuns(rb.EndToEnd, d.Name)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", pathB, err)
			}
			if d.trainOnly && !inA && !inB {
				continue
			}
			if !inA || !inB {
				return 0, fmt.Errorf("%s: both documents need %s", ra.Name, d.Name)
			}
			v := judge(d, ma, mb)
			if v == worse {
				code = 1
			}
			against, bound := fmt.Sprintf("%.4f of %.4g %s", mb.Value/ma.Value, ma.Value, d.Unit), fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.abs {
				against, bound = fmt.Sprintf("%+.4f from %.4g %s", mb.Value-ma.Value, ma.Value, d.Unit), fmt.Sprint(d.Bound)
			}
			fmt.Fprintf(w, "%-20s %-15s %12.4f %12.4f  %-28s %6s  %s\n", ra.Name, d.Name, ma.Value, mb.Value, against, bound, v)
		}
		for side, r := range []workloadResult{ra, rb} {
			for _, rep := range slices.Concat(r.EndToEnd, []*report{r.PerLayer}) {
				if rep != nil && (!rep.Correct || rep.Failed > 0) {
					fmt.Fprintf(w, "%-20s %c: %d of %d operations failed, correct=%v\n", ra.Name, "AB"[side], rep.Failed, rep.Attempted, rep.Correct)
					code = 1
				}
				if rep == nil {
					continue
				}
				for _, c := range rep.Limits {
					if !c.OK {
						fmt.Fprintf(w, "%-20s %c: outside limit (%s): %s\n", ra.Name, "AB"[side], c.Name, c.Detail)
					}
				}
			}
		}
	}
	return code, nil
}
