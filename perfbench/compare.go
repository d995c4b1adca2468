package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) computes them (the
// exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// readRecords loads the untraced result records of a result set, by
// workload, in file order.
func readRecords(path string) (map[string][]resultRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]resultRecord{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r resultRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(recs []resultRecord, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// verdict judges new against old for one metric by the benchmark's
// rule: improved when new wins at least nine tenths of the run pairs
// (ties count for neither) and the medians differ by more than old's
// interquartile range; unresolved when either side's spread exceeds the
// bound, unless every new run beats every old run; regressed when new's
// median is worse than old's by more than the bound; else within bound.
func verdict(m metricSpec, old, new []float64) string {
	better := func(a, b float64) bool { return isBetter(m, a, b) }
	o1, om, o3 := quartiles(old)
	n1, nm, n3 := quartiles(new)
	wins, pairs := pairWins(m, old, new)
	if pairs > 0 && float64(wins) >= 0.9*float64(pairs) && better(nm, om) && abs(nm-om) > o3-o1 {
		return "improved"
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			allBetter = allBetter && better(n, o)
		}
	}
	spread := max(relSpread(o1, om, o3), relSpread(n1, nm, n3))
	if spread > m.Bound && !allBetter {
		return "unresolved"
	}
	if better(om, nm) && abs(nm-om) > m.Bound*abs(om) {
		return "regressed"
	}
	return "within bound"
}

// isBetter reports whether a reads better than b for metric m.
func isBetter(m metricSpec, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// pairWins counts the run pairs (old[i], new[i]) new wins; ties count
// for neither.
func pairWins(m metricSpec, old, new []float64) (wins, pairs int) {
	pairs = min(len(old), len(new))
	for i := 0; i < pairs; i++ {
		if isBetter(m, new[i], old[i]) {
			wins++
		}
	}
	return wins, pairs
}

func relSpread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / abs(q2)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compareMode prints, for each workload × end-to-end metric, the medians
// and quartiles of one result set, or of two with a verdict.
func compareMode(w io.Writer, files []string) error {
	if len(files) < 1 || len(files) > 2 {
		return fmt.Errorf("-compare takes one or two result files, got %d", len(files))
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	var sets []map[string][]resultRecord
	for _, f := range files {
		s, err := readRecords(f)
		if err != nil {
			return err
		}
		sets = append(sets, s)
	}
	cell := func(xs []float64) string {
		q1, q2, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q2, q1, q3, len(xs))
	}
	header := fmt.Sprintf("%-9s %-14s %-36s", "workload", "metric", files[0]+" median [q1, q3]")
	if len(sets) == 2 {
		header += fmt.Sprintf(" %-36s %8s %6s  %s", files[1]+" median [q1, q3]", "delta", "wins", "verdict")
	} else {
		header += fmt.Sprintf(" %8s", "spread")
	}
	fmt.Fprintln(w, header)
	for _, wl := range sortedKeys(sets[0]) {
		for _, m := range spec.EndToEnd {
			old := values(sets[0][wl], m.Name)
			row := fmt.Sprintf("%-9s %-14s %-36s", wl, m.Name, cell(old))
			if len(sets) == 1 {
				row += fmt.Sprintf(" %7.1f%%", 100*relSpread(quartiles(old)))
			} else {
				new := values(sets[1][wl], m.Name)
				_, om, _ := quartiles(old)
				_, nm, _ := quartiles(new)
				wins, pairs := pairWins(m, old, new)
				delta := 0.0
				if om != 0 {
					delta = (nm - om) / abs(om)
				}
				row += fmt.Sprintf(" %-36s %+7.1f%% %3d/%-2d  %s", cell(new), 100*delta, wins, pairs, verdict(m, old, new))
			}
			fmt.Fprintln(w, row)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
