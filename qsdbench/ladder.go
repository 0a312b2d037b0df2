package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runLadder drives the serve-mixed traffic at each rate of a ladder, each
// rung on a server restarted over a store a cold pass filled (as the
// serve-mixed open loop runs), and prints what each rung measured: the
// measurement serve-mixed's offered rate and latency limit are set from.
func runLadder(args []string, w io.Writer) error {
	fset := flag.NewFlagSet("qsdbench ladder", flag.ContinueOnError)
	seed := fset.Int64("seed", 1, "seed the arrival schedules are drawn from")
	secs := fset.Float64("rung-seconds", 10, "open-loop seconds per rung")
	reps := fset.Int("reps", 3, "repetitions of each rung")
	rateList := fset.String("rates", "100,200,300,400,600,800,1200", "offered rates, requests per second")
	if err := fset.Parse(args); err != nil {
		return err
	}
	var rates []float64
	for _, f := range strings.Split(*rateList, ",") {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("bad rate %q", f)
		}
		rates = append(rates, r)
	}
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	digests, err := loadDigests()
	if err != nil {
		return err
	}
	b := &bench{workload: "serve-mixed", seed: *seed, root: root, rng: rand.New(rand.NewSource(*seed)),
		digests: digests, samples: map[string][]float64{}, layers: map[string]float64{},
		counts: map[string]int{}, detail: map[string]any{}}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return err
	}
	if b.tmp, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "ladder-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)

	dir := filepath.Join(b.tmp, "store")
	ls, _, err := b.startServer(dir, false)
	if err != nil {
		return err
	}
	_, ok := b.allDone(b.drive(ls, b.warmCalls(), nil))
	if err := ls.stop(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("filling the store failed: %v", b.failures)
	}
	fmt.Fprintf(w, "latency limit %v, %d connections, %.0f s per rung\n", latencyLimit, runtime.NumCPU(), *secs)
	fmt.Fprintf(w, "%8s %4s %8s %8s %8s %9s %9s %8s %9s %7s %6s\n",
		"rate", "rep", "p50_ms", "p90_ms", "p99_ms", "max_ms", "goodput", "over", "lag_p99", "backlog", "fails")
	var rungs []map[string]any
	for _, rate := range rates {
		for k := 0; k < *reps; k++ {
			calls, _ := b.openLoop(rand.New(rand.NewSource(b.rng.Int63())), time.Duration(*secs*float64(time.Second)), rate)
			if len(calls) < minLoopCalls {
				return fmt.Errorf("rung of %d requests at %v rps: --rung-seconds too short", len(calls), rate)
			}
			runtime.GC()
			ls, _, err := b.startServer(dir, false)
			if err != nil {
				return err
			}
			results := b.drive(ls, calls, nil)
			if err := ls.stop(); err != nil {
				return err
			}
			st := b.loopStats(calls, results, latencyLimit)
			fmt.Fprintf(w, "%8.0f %4d %8.3g %8.3g %8.4g %9.4g %9.1f %8.4f %9.3g %7.2f %6d\n",
				rate, k, st.P50, st.P90, st.P99, st.Max, st.Goodput, st.OverLimit, st.LagP99, st.Backlog, st.Failed)
			rungs = append(rungs, map[string]any{"rate_rps": rate, "rep": k, "stats": st})
		}
	}
	line, err := json.Marshal(map[string]any{"provenance": provenance(b), "latency_limit_ms": latencyLimit.Milliseconds(),
		"rung_seconds": *secs, "rungs": rungs, "failures": b.failures})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
