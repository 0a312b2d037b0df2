package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The shared host the benchmark runs on changes speed by 10-45% over
// minutes, and by over 2x between its slow and fast spells, more than any
// timing's bound; the change moves every timing of a run together.  So
// each measuring process also times a fixed reference computation between
// pieces of measured work, and every end-to-end time is reported in
// seconds of a host on which that reference takes refNominal:
//
//	reported = measured × refNominal / median(reference times of the run)
//
// The reference is code of the benchmark's own, which the program under
// test cannot change, so the scaling cancels the host's speed and leaves
// the program's.  It runs an arithmetic loop and then allocates, hashes
// into a map and sorts, one copy on every core: sampled side by side with
// cold passes, neither half alone followed both batch workloads, and the
// blend followed each about as well as the better half did (LAYERS.md).
// It runs only right after busy work (a pass, a restart), since its first
// run after the host has idled reads up to twice as slow.  Its map holds
// more memory than some workloads do, so peak_rss_mb takes this process's
// peak from before its first run.  The unscaled medians are kept in the run
// record.

// refNominal defines the unit reported times are in: a round figure at the
// slow end of the reference's time on the host the benchmark was built on
// (30-58 ms as the host's speed moved, LAYERS.md).
const refNominal = 60 * time.Millisecond

// timeMetrics are the end-to-end samples that are times, and so are scaled.
var timeMetrics = []string{"setup_s", "pass_s", "req_p50_ms", "req_p99_ms", "restart_s"}

// refSink keeps the reference computation from being optimised away.
var refSink int

// refWork is the reference computation: an arithmetic loop, then a map of
// 50k small slices built in a scattered key order, its keys collected and
// sorted.
func refWork() int {
	x := uint64(88172645463325252)
	for i := 0; i < 10_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	m := make(map[int][]int)
	for i := 0; i < 50_000; i++ {
		m[i*7919%50_021] = make([]int, 8)
	}
	keys := make([]float64, 0, len(m))
	for k, v := range m {
		keys = append(keys, float64(k)*1.5+float64(len(v)))
	}
	sort.Float64s(keys)
	return len(keys) + int(keys[len(keys)/2]) + int(x&1)
}

// calibrate times the reference computation on a collected heap, between
// two pieces of measured work: one copy on each of GOMAXPROCS goroutines at
// once, since the measured work runs on every core and loses as much when
// another tenant takes one.
func (b *bench) calibrate() {
	if b.selfRSSMB == 0 {
		// The measured work has run by now, so this is its peak; then one
		// untimed run grows the heap the reference reuses after.
		b.selfRSSMB = maxRSSMB(syscall.RUSAGE_SELF)
		refSink += refWork()
	}
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	out := make([]int, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = refWork()
		}()
	}
	wg.Wait()
	b.refs = append(b.refs, time.Since(t0).Seconds())
	for _, v := range out {
		refSink += v
	}
}

// normalize scales the run's time samples to the reference host speed,
// and records the unscaled medians and the reference's.
func (b *bench) normalize() {
	if len(b.refs) == 0 {
		return
	}
	ref := summarize(b.refs)
	scale := refNominal.Seconds() / ref.Median
	raw := map[string]float64{}
	for _, name := range timeMetrics {
		xs := b.samples[name]
		if len(xs) == 0 {
			continue
		}
		raw[name] = summarize(xs).Median
		for i := range xs {
			xs[i] *= scale
		}
	}
	b.detail["reference"] = map[string]any{"ref_s": ref, "scale": scale, "unscaled_medians": raw}
}
