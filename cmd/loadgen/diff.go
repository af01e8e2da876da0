package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// worsening is how much b reads worse than a, as a share of a (or as an
// absolute difference for Abs metrics); negative when b reads better.
func worsening(m metricSpec, a, b float64) float64 {
	d := b - a
	if m.Better == "higher" {
		d = -d
	}
	if m.Abs {
		return d
	}
	return ratio(d, math.Abs(a))
}

// spread is the min–max range of values, relative to their median unless
// the metric's bound is absolute.
func spread(m metricSpec, values []float64) float64 {
	s := sortedCopy(values)
	r := s[len(s)-1] - s[0]
	if m.Abs {
		return r
	}
	return ratio(r, math.Abs(median(s)))
}

// judge compares two sets of runs of one metric. A median that moved by
// more than the bound is worse or better, unless either side's runs spread
// wider than the bound and the two sides interleave: then the runs cannot
// tell the change from the noise, and the verdict is unresolved.
func judge(m metricSpec, a, b []float64) string {
	w := worsening(m, median(a), median(b))
	wide := spread(m, a) > m.Bound || spread(m, b) > m.Bound
	if wide && !separated(m, a, b) {
		return "unresolved"
	}
	switch {
	case w > m.Bound:
		return "worse"
	case w < -m.Bound:
		return "better"
	}
	return "same"
}

// separated reports whether every run of b reads better than every run of
// a, or every one worse.
func separated(m metricSpec, a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return worsening(m, sa[0], sb[len(sb)-1]) < 0 && worsening(m, sa[len(sa)-1], sb[0]) < 0 ||
		worsening(m, sa[len(sa)-1], sb[0]) > 0 && worsening(m, sa[0], sb[len(sb)-1]) > 0
}

// sideValues loads a comma-separated list of result files into
// workload → metric → one value per file.
func sideValues(list string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, wr := range rf.Workloads {
			if out[w] == nil {
				out[w] = map[string][]float64{}
			}
			for k, v := range wr.Metrics {
				out[w][k] = append(out[w][k], v)
			}
		}
	}
	return out, nil
}

// diff prints, for every workload and end-to-end metric the two sides share,
// both medians, the change, each side's min–max spread and a verdict. It
// reports whether any metric got worse.
func diff(w io.Writer, a, b string) (worse bool, err error) {
	sa, err := sideValues(a)
	if err != nil {
		return false, err
	}
	sb, err := sideValues(b)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range sa {
		if sb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %-20s %12s %12s %9s %17s %17s  %s\n", "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "verdict")
	for _, name := range names {
		for _, m := range allEndToEnd() {
			va, vb := sa[name][m.Name], sb[name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(m, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-10s %-20s %12.4g %12.4g %+8.1f%% %17s %17s  %s\n", name, m.Name,
				median(va), median(vb), 100*ratio(median(vb)-median(va), math.Abs(median(va))),
				rangeOf(va), rangeOf(vb), v)
		}
	}
	return worse, nil
}

func rangeOf(values []float64) string {
	if len(values) == 0 {
		return "n/a"
	}
	s := sortedCopy(values)
	return fmt.Sprintf("%.4g–%.4g", s[0], s[len(s)-1])
}
