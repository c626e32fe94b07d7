package main

import (
	"fmt"
	"io"
	"os"
)

// verdict of one (workload, metric) pair between two sets of runs.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's values in a base set and a new set. worsening
// is how far the new median lies on the wrong side of the base median, as a
// share of it. spread is the wider of the two sets' own quartile distances
// over their medians; when it exceeds the bound the pair cannot tell a
// regression from noise and is unresolved, whatever the medians say.
func judge(base, cur []float64, d metricDef) (baseMed, curMed, worsening, spread float64, verdict string) {
	baseMed, curMed = median(base), median(cur)
	if baseMed != 0 {
		worsening = (curMed - baseMed) / baseMed
		if d.higher {
			worsening = -worsening
		}
	}
	spread = max(iqrShare(base), iqrShare(cur))
	switch {
	case spread > d.bound:
		verdict = verdictUnresolved
	case worsening > d.bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return
}

// untraced groups the end-to-end values of a set of runs by workload and
// metric.
func untraced(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, m := range r.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], m.Value)
		}
	}
	return out
}

// compareSets prints one row per workload and end-to-end metric and reports
// whether every row is ok.
func compareSets(base, cur []*result, w io.Writer) bool {
	a, b := untraced(base), untraced(cur)
	allOK := true
	fmt.Fprintf(w, "%-16s %-24s %12s %12s %9s %7s %7s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "spread", "verdict")
	for _, wl := range workloads {
		for _, n := range endToEndOrder {
			if len(a[wl.name][n]) == 0 || len(b[wl.name][n]) == 0 {
				continue
			}
			d := metricDefs[n]
			bm, cm, worse, spread, v := judge(a[wl.name][n], b[wl.name][n], d)
			fmt.Fprintf(w, "%-16s %-24s %12.4f %12.4f %+8.1f%% %6.0f%% %6.1f%%  %s\n",
				wl.name, n, bm, cm, 100*worse, 100*d.bound, 100*spread, v)
			allOK = allOK && v == verdictOK
		}
	}
	return allOK
}

func compareFiles(basePath, curPath string, w io.Writer) int {
	base, err := readRecord(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	cur, err := readRecord(curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !compareSets(base.Runs, cur.Runs, w) {
		return 1
	}
	return 0
}

// agreement is the two-set check on one record made with -repeat 2 or more:
// the first half of each workload's untraced runs against the second half.
func agreement(rec *record, w io.Writer) bool {
	var first, second []*result
	seen := map[string]int{}
	total := map[string]int{}
	for _, r := range rec.Runs {
		if !r.Trace {
			total[r.Workload]++
		}
	}
	for _, r := range rec.Runs {
		if r.Trace {
			continue
		}
		if seen[r.Workload] < total[r.Workload]/2 {
			first = append(first, r)
		} else {
			second = append(second, r)
		}
		seen[r.Workload]++
	}
	fmt.Fprintln(w, "two-set agreement (first half of the untraced runs against the second):")
	return compareSets(first, second, w)
}
