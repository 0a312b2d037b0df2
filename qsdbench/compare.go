package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the comparison reads: which way each
// metric improves, and the bound an end-to-end metric may worsen by.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the comparison of one metric between a parent and a change,
// from paired runs (run i of each side made with the same settings).
type verdict struct {
	Metric       string
	Pairs        int
	Wins, Losses int     // pairs the change did better / worse in; ties count for neither
	Parent       summary // parent's runs
	Change       summary // change's runs
	Worse        float64 // how much worse the change's median is, as a share of the parent's (negative = better)
	Bound        float64 // the metric's bound (0 for per-layer metrics)
	Result       string  // "improved", "regressed" or "unresolved"
}

// minPairs is the fewest pairs a verdict other than "unresolved" needs.
const minPairs = 10

// compareMetric applies the rule for claiming a difference: the change
// wins (or loses) at least nine tenths of the pairs, and the medians differ
// by more than the distance between the parent's quartiles.  Anything else
// is unresolved.
func compareMetric(m specMetric, parent, change []float64) verdict {
	n := len(parent)
	if len(change) < n {
		n = len(change)
	}
	v := verdict{Metric: m.Name, Pairs: n, Bound: m.Bound,
		Parent: summarize(parent), Change: summarize(change), Result: "unresolved"}
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			v.Wins++
		case d > 0:
			v.Losses++
		}
	}
	if v.Parent.Median != 0 {
		v.Worse = sign * (v.Change.Median - v.Parent.Median) / math.Abs(v.Parent.Median)
	}
	if n < minPairs {
		return v
	}
	separated := math.Abs(v.Change.Median-v.Parent.Median) > v.Parent.P75-v.Parent.P25
	switch {
	case separated && 10*v.Wins >= 9*n:
		v.Result = "improved"
	case separated && 10*v.Losses >= 9*n:
		v.Result = "regressed"
	}
	return v
}

// readRuns reads one metric series per name from a file of run results,
// one JSON object per line: either the result line the benchmark prints
// last, or the record it prints before it (whose "result" holds the same).
// Lines that are neither are skipped.
func readRuns(r io.Reader) (map[string][]float64, int, error) {
	out := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		var line struct {
			resultLine
			Result *resultLine `json:"result"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		metrics := line.Metrics
		if line.Result != nil {
			metrics = line.Result.Metrics
		}
		if len(metrics) == 0 {
			continue
		}
		runs++
		for name, mv := range metrics {
			out[name] = append(out[name], mv.Value)
		}
	}
	return out, runs, sc.Err()
}

// runCompare is `qsdbench compare [-spec BENCHMARK.json] parent change`.
func runCompare(args []string, w io.Writer) error {
	fset := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fset.String("spec", "BENCHMARK.json", "benchmark description giving each metric's direction and bound")
	if err := fset.Parse(args); err != nil {
		return err
	}
	if fset.NArg() != 2 {
		return fmt.Errorf("want two files of run results: parent and change")
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	var sides [2]map[string][]float64
	for i, path := range fset.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		m, runs, err := readRuns(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if runs == 0 {
			return fmt.Errorf("%s: no run results", path)
		}
		sides[i] = m
	}
	var verdicts []verdict
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		p, c := sides[0][m.Name], sides[1][m.Name]
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		verdicts = append(verdicts, compareMetric(m, p, c))
	}
	sort.SliceStable(verdicts, func(i, j int) bool { return verdicts[i].Bound > verdicts[j].Bound })
	fmt.Fprintf(w, "%-28s %5s %9s %-32s %-32s %8s  %s\n", "metric", "pairs", "win/loss", "parent median [q1,q3]", "change median [q1,q3]", "worse", "verdict")
	for _, v := range verdicts {
		result := v.Result
		if v.Bound > 0 && v.Worse > v.Bound {
			result += ", worse than its bound " + fmt.Sprintf("%.0f%%", 100*v.Bound)
		}
		fmt.Fprintf(w, "%-28s %5d %4d/%-4d %-32s %-32s %+7.1f%%  %s\n", v.Metric, v.Pairs, v.Wins, v.Losses,
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.Parent.Median, v.Parent.P25, v.Parent.P75),
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.Change.Median, v.Change.P25, v.Change.P75),
			100*v.Worse, result)
	}
	return nil
}
