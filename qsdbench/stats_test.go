package main

import (
	"math"
	"testing"

	"speedofdata/internal/report"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs               []float64
		p25, median, p75 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, 1.35, 3.1, 6.7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3, 8, 7}, 2, 4, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if math.Abs(s.P25-c.p25) > 1e-12 || math.Abs(s.Median-c.median) > 1e-12 || math.Abs(s.P75-c.p75) > 1e-12 {
			t.Errorf("summarize(%v) = %+v, want p25 %v median %v p75 %v", c.xs, s, c.p25, c.median, c.p75)
		}
		if s.N != len(c.xs) {
			t.Errorf("summarize(%v).N = %d", c.xs, s.N)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 0.99); got != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", got)
	}
	if got := percentile(s, 0.50); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestBinomialTwoSided(t *testing.T) {
	// Expected values computed independently from the binomial pmf.
	cases := []struct {
		x, n int
		p    float64
		want float64
	}{
		{5, 10, 0.5, 1},
		{0, 10, 0.5, 0.001953125},
		{2, 722, 199376.0 / (199376 + 9968229), 0.00014755652917118853},
		{13, 725, 199391.0 / (199391 + 9968291), 0.8806640507450654},
		{0, 0, 0.3, 1},
	}
	for _, c := range cases {
		if got := binomialTwoSided(c.x, c.n, c.p); math.Abs(got-c.want) > 1e-9*math.Max(1e-3, c.want) {
			t.Errorf("binomialTwoSided(%d, %d, %v) = %v, want %v", c.x, c.n, c.p, got, c.want)
		}
	}
}

// fig4Section builds a fig4 table whose rows hold the given uncorrectable
// and rejected counts out of trials.
func fig4Section(trials int, unc, rejected [fig4Protocols]int) report.Section {
	tb := report.Table{Headers: []string{"Circuit", "Paper rate", "First-order uncorrectable", "MC uncorrectable",
		"MC residual", "Verify reject", "Physical ops"}}
	for i, name := range []string{"basic", "verify-only", "correct-only", "verify-and-correct"} {
		accepted := trials - rejected[i]
		tb.AddRow(name, 1e-3, 1e-3, float64(unc[i])/float64(accepted), 0.0,
			float64(rejected[i])/float64(trials), 100)
	}
	return report.NewSection("fig4", tb)
}

func TestSamplersAgree(t *testing.T) {
	rej := [fig4Protocols]int{0, 220, 0, 620}
	rejBig := [fig4Protocols]int{0, 11000, 0, 31000}
	dense := []report.Section{fig4Section(200_000, [4]int{21, 4, 47, 13}, rej), fig4Section(200_000, [4]int{20, 7, 40, 16}, rej)}
	sliced := []report.Section{fig4Section(10_000_000, [4]int{1058, 334, 2184, 720}, rejBig),
		fig4Section(10_000_000, [4]int{1054, 376, 2208, 712}, rejBig)}
	if err := samplersAgree(dense, 200_000, sliced, 10_000_000, fig4Alpha); err != nil {
		t.Fatalf("agreeing samplers rejected: %v", err)
	}
	c, err := fig4Counts(dense[0], 200_000)
	if err != nil || c["verify-and-correct"] != (fig4Count{13, 199_380}) {
		t.Fatalf("fig4Counts = %v, %v", c, err)
	}
	// A dense sampler running at a third of the rate fails.
	biased := []report.Section{fig4Section(200_000, [4]int{7, 1, 15, 4}, rej), fig4Section(200_000, [4]int{6, 2, 13, 5}, rej)}
	if err := samplersAgree(biased, 200_000, sliced, 10_000_000, fig4Alpha); err == nil {
		t.Fatal("biased dense sampler accepted")
	}
}
