package main

import (
	"strings"
	"testing"
)

func series(base float64, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestCompareImproved(t *testing.T) {
	m := specMetric{Name: "pass_s", Better: "lower", Bound: 0.25}
	parent := series(1.0, 0.01, 10) // 1.00..1.04, IQR ~0.03
	change := series(0.8, 0.01, 10)
	v := compareMetric(m, parent, change)
	if v.Result != "improved" || v.Wins != 10 || v.Worse >= 0 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestCompareRegressedHigherIsBetter(t *testing.T) {
	m := specMetric{Name: "goodput_rps", Better: "higher", Bound: 0.1}
	parent := series(100, 1, 10)
	change := series(80, 1, 10)
	v := compareMetric(m, parent, change)
	if v.Result != "regressed" || v.Losses != 10 || v.Worse <= 0.1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestCompareUnresolvedWhenWithinSpread(t *testing.T) {
	m := specMetric{Name: "pass_s", Better: "lower"}
	parent := []float64{1.0, 1.3, 0.9, 1.2, 1.1, 1.0, 1.3, 0.9, 1.2, 1.1}
	// Wins every pair, but by less than the parent's quartile distance.
	change := make([]float64, len(parent))
	for i, p := range parent {
		change[i] = p - 0.05
	}
	if v := compareMetric(m, parent, change); v.Result != "unresolved" || v.Wins != 10 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestCompareUnresolvedWithoutNineTenths(t *testing.T) {
	m := specMetric{Name: "pass_s", Better: "lower"}
	parent := series(1.0, 0.001, 10)
	change := series(0.5, 0.001, 10)
	change[0], change[1] = 2, 2 // two losses: 8 of 10 wins
	if v := compareMetric(m, parent, change); v.Result != "unresolved" || v.Wins != 8 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestCompareNeedsTenPairsAndTiesCountForNeither(t *testing.T) {
	m := specMetric{Name: "pass_s", Better: "lower"}
	if v := compareMetric(m, series(1, 0, 9), series(0.5, 0, 9)); v.Result != "unresolved" {
		t.Fatalf("9 pairs: verdict = %+v", v)
	}
	v := compareMetric(m, series(1, 0, 10), series(1, 0, 10))
	if v.Wins != 0 || v.Losses != 0 || v.Result != "unresolved" {
		t.Fatalf("ties: verdict = %+v", v)
	}
}

func TestReadRunsAcceptsResultAndRecordLines(t *testing.T) {
	in := strings.Join([]string{
		`setup_s 0.1 s`,
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"pass_s":{"value":1.5,"unit":"s"}}}`,
		`{"run":"x","result":{"correct":true,"attempted":3,"failed":0,"metrics":{"pass_s":{"value":1.25,"unit":"s"}}}}`,
	}, "\n")
	got, runs, err := readRuns(strings.NewReader(in))
	if err != nil || runs != 2 || len(got["pass_s"]) != 2 || got["pass_s"][0] != 1.5 || got["pass_s"][1] != 1.25 {
		t.Fatalf("readRuns = %v, %d, %v", got, runs, err)
	}
}
