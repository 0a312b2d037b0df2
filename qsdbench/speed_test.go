package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestNormalizeScalesOnlyTimes(t *testing.T) {
	ref := refNominal.Seconds()
	b := &bench{
		samples: map[string][]float64{
			"pass_s":      {1, 2, 3},
			"restart_s":   {0.5},
			"peak_rss_mb": {40},
		},
		// The host ran at half speed: the reference took twice refNominal.
		refs:   []float64{2 * ref, 1.9 * ref, 2.1 * ref},
		detail: map[string]any{},
	}
	b.normalize()
	want := map[string][]float64{"pass_s": {0.5, 1, 1.5}, "restart_s": {0.25}, "peak_rss_mb": {40}}
	for name, xs := range want {
		for i, x := range xs {
			if got := b.samples[name][i]; math.Abs(got-x) > 1e-12 {
				t.Errorf("%s[%d] = %v, want %v", name, i, got, x)
			}
		}
	}
}

func TestWindowMediansDropsPartialWindowAndCountsFailures(t *testing.T) {
	ms := time.Millisecond
	calls := []call{{due: 100 * ms}, {due: 200 * ms}, {due: 300 * ms}, {due: 1100 * ms}, {due: 2100 * ms}}
	results := []callResult{{lat: 1 * ms}, {lat: 3 * ms}, {lat: 2 * ms}, {lat: 5 * ms, err: errors.New("refused")}, {lat: 9 * ms}}
	got := windowMedians(calls, results, time.Second)
	want := []float64{2, float64(clientTimeout / ms)}
	if len(got) != len(want) {
		t.Fatalf("windowMedians = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("window %d median = %v, want %v", i, got[i], want[i])
		}
	}
}
