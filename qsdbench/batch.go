package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"speedofdata/internal/circuits"
	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/network"
	"speedofdata/internal/noise"
	"speedofdata/internal/obs"
	"speedofdata/internal/quantum"
	"speedofdata/internal/report"
	"speedofdata/internal/sim"
	"speedofdata/internal/steane"
	"speedofdata/internal/store"
)

// paperBits is the operand width of the paper's benchmarks.
const paperBits = 32

// bitSlicedTrials is fig4's bit-sliced effort in batch-fig4: the largest
// trial count the server accepts.
const bitSlicedTrials = 10_000_000

// minPasses is the fewest measured passes of a batch run, however short.
const minPasses = 3

// request is one batch invocation: the experiments one qsd command
// regenerates with one parameter set.  labels name each experiment's output
// (its digest key).
type request struct {
	ids    []string
	labels []string
	params core.RunParams
}

// passOutput is what one pass produced.
type passOutput struct {
	wall     time.Duration
	latency  []time.Duration // per experiment: pass start to its job's completion
	texts    map[string][]byte
	sections map[string]report.Section
	bytes    int
}

// tracedRequest ties a traced request's span subtree to the Monte Carlo
// trials it ran, for the per-trial costs of the noise layer.
type tracedRequest struct {
	root   int64
	mode   string // "dense" or "bitsliced"
	trials float64
}

// newExperiments is the experiment runner of a fresh engine: default
// workers when workers is 0, and backend as the engine's second cache tier
// when it is not nil.
func newExperiments(workers int, backend engine.CacheBackend) core.Experiments {
	exp := core.NewExperiments()
	exp.Bits = paperBits
	exp.Engine = engine.New(workers)
	if backend != nil {
		exp.Engine.Backend = backend
	}
	return exp
}

// runPass runs the requests one after another, as consecutive qsd commands
// would, and encodes each experiment's section as text.  With rec set, each
// request's engine job spans are recorded under parent.
func (b *bench) runPass(ctx context.Context, exp core.Experiments, reqs []request, rec *recorder, parent int64) (passOutput, error) {
	out := passOutput{texts: map[string][]byte{}, sections: map[string]report.Section{}}
	start := time.Now()
	var mu sync.Mutex
	exp.Engine.Progress = func(_, _ int, key, _ string) {
		if strings.HasPrefix(key, "qsd|") {
			d := time.Since(start)
			mu.Lock()
			out.latency = append(out.latency, d)
			mu.Unlock()
		}
	}
	for _, r := range reqs {
		rctx := ctx
		var tracer *obs.Tracer
		var tr *obs.Trace
		if rec != nil {
			tracer = obs.NewTracer(1)
			tr = tracer.Start("request")
			rctx = obs.ContextWithSpan(ctx, tr.Root())
		}
		doc, err := core.RunReport(rctx, exp, r.params, r.ids)
		if tr != nil {
			tracer.Finish(tr)
			root := rec.importObs(tr, parent, "request", "")
			b.noteTraced(root, r.params, r.ids)
		}
		if err != nil {
			return out, err
		}
		encStart := time.Now()
		for i, sec := range doc.Sections {
			var buf bytes.Buffer
			if err := (report.Document{Sections: []report.Section{sec}}).Encode(&buf, report.FormatText); err != nil {
				return out, err
			}
			out.texts[r.labels[i]] = buf.Bytes()
			out.sections[r.labels[i]] = sec
			out.bytes += buf.Len()
		}
		rec.add("report.encode", "report", parent, encStart, time.Now())
	}
	out.wall = time.Since(start)
	return out, nil
}

// noteTraced records a traced request for the noise per-trial costs.
func (b *bench) noteTraced(root int64, p core.RunParams, ids []string) {
	for _, id := range ids {
		if id != "fig4" {
			continue
		}
		mode := "dense"
		if p.BitSliced {
			mode = "bitsliced"
		}
		b.traced = append(b.traced, tracedRequest{root: root, mode: mode, trials: float64(p.Trials * fig4Protocols)})
	}
}

// fig4Protocols is the number of preparation protocols fig4 samples.
const fig4Protocols = 4

// batchWorkload describes one batch workload to runBatch.
type batchWorkload struct {
	// pass draws the requests of one cold pass from the seed.
	pass func() []request
	// verify checks one pass's outputs.
	verify func(passOutput) error
	// checks runs the once-per-run correctness checks; each returned error
	// slot is one checked operation.
	checks func(ctx context.Context) []error
	// probes times standalone calls into layers the pass reaches only
	// inside engine jobs (traced runs).
	probes func()
}

// runBatch measures a batch workload: repeated cold passes, each followed
// by restarts (a fresh engine over the store an earlier pass filled, as a
// second qsd run with -store would be), until the measured time is spent.
func (b *bench) runBatch(w batchWorkload) error {
	ctx := context.Background()
	// Set-up is microseconds, so each sample is the mean of a block of
	// set-ups.
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		for k := 0; k < setupBlock; k++ {
			exp := newExperiments(0, nil)
			digests, err := loadDigests()
			if err != nil || exp.Engine == nil || len(digests) == 0 {
				return fmt.Errorf("setup: %v", err)
			}
		}
		b.sample("setup_s", time.Since(t0).Seconds()/setupBlock)
	}

	// Fill the store the restarts read, with a pass drawn like any other.
	storeDir := filepath.Join(b.tmp, "store")
	fillReqs := w.pass()
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return err
	}
	filled := &timedStore{Store: st}
	fill, err := b.runPass(ctx, newExperiments(0, filled), fillReqs, nil, 0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = w.verify(fill)
	}
	b.check(err)
	b.layers["store.put_s"] = filled.putTime().Seconds()

	var perPass int
	var tracedPass, untracedPass []float64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < b.seconds; i++ {
		traced := b.trace && i%2 == 0
		var rec *recorder
		if traced {
			rec = b.rec
		}
		// Cold pass, on a collected heap as a fresh qsd process would start.
		b.calibrate()
		runtime.GC()
		exp := newExperiments(0, nil)
		var reg *obs.Registry
		if traced {
			reg = obs.NewRegistry()
			exp.Engine.Instrument(reg)
		}
		before := b.globalCounters()
		passSpan := rec.begin("pass", "", 0)
		out, err := b.runPass(ctx, exp, w.pass(), rec, passSpan)
		rec.finish(passSpan)
		if traced {
			b.addPassCounters(before, b.globalCounters(), exp.Engine, reg)
			b.layers["report.bytes"] += float64(out.bytes)
			b.counts["traced_units"]++
			tracedPass = append(tracedPass, out.wall.Seconds())
		} else {
			untracedPass = append(untracedPass, out.wall.Seconds())
		}
		if err == nil {
			err = w.verify(out)
		}
		// Each experiment of the pass is one operation; the pass's check
		// counts the last of them.
		b.attempted += max(len(out.texts)-1, 0)
		if b.check(err) {
			if !traced {
				// Every experiment of a pass is due at its start; the
				// pass's latency percentiles are one sample each.
				lat := sortedCopy(millis(out.latency))
				b.sample("pass_s", out.wall.Seconds())
				b.sample("req_p50_ms", percentile(lat, 0.50))
				b.sample("req_p99_ms", percentile(lat, 0.99))
				perPass = len(out.texts)
			}
		}

		// Restarts over the filled store.
		for k := 0; k < restartsPerPass; k++ {
			runtime.GC()
			t0 := time.Now()
			st, err := store.Open(storeDir, store.Options{})
			if err != nil {
				return err
			}
			ts := &timedStore{Store: st, rec: rec}
			restartSpan := rec.begin("restart", "", 0)
			again, err := b.runPass(ctx, newExperiments(0, ts), fillReqs, rec, restartSpan)
			if cerr := st.Close(); err == nil {
				err = cerr
			}
			restart := time.Since(t0)
			rec.finish(restartSpan)
			if err == nil {
				err = sameTexts(fill, again)
			}
			if b.check(err) && !traced {
				b.sample("restart_s", restart.Seconds())
			}
			if traced {
				b.addStoreCounters(ts)
			}
		}
	}
	if b.trace {
		b.layers["trace.overhead_ratio"] = summarize(tracedPass).Median / summarize(untracedPass).Median
		for _, name := range []string{"report.bytes", "store.get_s", "store.hits", "store.misses"} {
			b.layers[name] /= float64(b.counts["traced_units"])
		}
		b.perLayerCounts()
		w.probes()
		b.noiseCosts()
	}
	b.counts["requests"] += perPass * len(b.samples["req_p50_ms"])
	if b.runChecks {
		for _, err := range w.checks(ctx) {
			b.check(err)
		}
	}
	return nil
}

// restartsPerPass is how many restarts follow each cold pass.
const restartsPerPass = 3

// setupReps is how many set-up samples a batch run takes, each the mean of
// setupBlock set-ups.
const (
	setupReps  = 25
	setupBlock = 200
)

// sameTexts reports whether two passes produced the same bytes.
func sameTexts(want, got passOutput) error {
	if len(want.texts) != len(got.texts) {
		return fmt.Errorf("restart produced %d outputs, want %d", len(got.texts), len(want.texts))
	}
	for label, text := range want.texts {
		if !bytes.Equal(text, got.texts[label]) {
			return fmt.Errorf("restart output of %s differs from the cold pass", label)
		}
	}
	return nil
}

// replayIDs is every registry experiment except fig4.
func replayIDs() []string {
	var ids []string
	for _, id := range core.ExperimentIDs() {
		if id != "fig4" {
			ids = append(ids, id)
		}
	}
	return ids
}

// digestOf is the hex SHA-256 of an output.
func digestOf(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

// checkDigests compares each labelled output with the recorded digest.
func (b *bench) checkDigests(out passOutput, labels []string) error {
	for _, label := range labels {
		text, ok := out.texts[label]
		if !ok {
			return fmt.Errorf("%s: no output", label)
		}
		want, ok := b.digests[label]
		if !ok {
			return fmt.Errorf("%s: no recorded digest", label)
		}
		if got := digestOf(text); got != want {
			return fmt.Errorf("%s: output digest %s, recorded %s", label, got[:12], want[:12])
		}
	}
	return nil
}

func runBatchReplay(b *bench) error {
	ids := replayIDs()
	all := request{ids: ids, labels: ids, params: core.DefaultRunParams()}
	return b.runBatch(batchWorkload{
		pass:   func() []request { return []request{all} },
		verify: func(out passOutput) error { return b.checkDigests(out, ids) },
		checks: func(ctx context.Context) []error {
			// Parallel equals sequential: a one-worker pass must match the
			// same digests every default-worker pass matched.
			out, err := b.runPass(ctx, newExperiments(1, nil), []request{all}, nil, 0)
			if err != nil {
				return []error{err}
			}
			return []error{b.checkDigests(out, ids)}
		},
		probes: func() {
			b.layers["quantum.dag_s"] = dagProbe()
			b.layers["network.events"] = networkEventsProbe([]string{"netsweep", "netcontention", "netfault", "netdegrade"}, paperBits, core.DefaultRunParams())
		},
	})
}

func runBatchFig4(b *bench) error {
	dense := func(seed int64) request {
		p := core.DefaultRunParams()
		p.Seed = seed
		return request{ids: []string{"fig4"}, labels: []string{"fig4"}, params: p}
	}
	sliced := func(seed int64) request {
		p := core.DefaultRunParams()
		p.Seed, p.Trials, p.BitSliced = seed, bitSlicedTrials, true
		return request{ids: []string{"fig4"}, labels: []string{"fig4-bitsliced"}, params: p}
	}
	return b.runBatch(batchWorkload{
		pass: func() []request {
			seed := 2 + b.rng.Int63n(1<<30)
			return []request{dense(seed), sliced(seed)}
		},
		verify: func(out passOutput) error {
			if _, err := fig4Counts(out.sections["fig4"], noise.DefaultTrials); err != nil {
				return fmt.Errorf("fig4: %v", err)
			}
			if _, err := fig4Counts(out.sections["fig4-bitsliced"], bitSlicedTrials); err != nil {
				return fmt.Errorf("fig4-bitsliced: %v", err)
			}
			return nil
		},
		checks: func(ctx context.Context) []error {
			run := func(workers int, reqs ...request) (passOutput, error) {
				return b.runPass(ctx, newExperiments(workers, nil), reqs, nil, 0)
			}
			var errs []error
			// Dense and bit-sliced at each agreement seed; the default seed
			// (the first) reproduces the recorded outputs.
			var denseSecs, slicedSecs []report.Section
			for s := int64(1); s <= fig4AgreeSeeds; s++ {
				out, err := run(0, dense(s), sliced(s))
				if err == nil && s == 1 {
					err = b.checkDigests(out, []string{"fig4", "fig4-bitsliced"})
				}
				errs = append(errs, err)
				if err != nil {
					return errs
				}
				denseSecs = append(denseSecs, out.sections["fig4"])
				slicedSecs = append(slicedSecs, out.sections["fig4-bitsliced"])
				// A sequential dense pass at a non-default seed is byte-identical
				// to the default-worker one.
				if s == fig4CheckSeed {
					seq, err := run(1, dense(s))
					if err == nil && !bytes.Equal(out.texts["fig4"], seq.texts["fig4"]) {
						err = fmt.Errorf("fig4 dense at seed %d: parallel and sequential outputs differ", s)
					}
					errs = append(errs, err)
				}
			}
			return append(errs, samplersAgree(denseSecs, noise.DefaultTrials, slicedSecs, bitSlicedTrials, fig4Alpha))
		},
		probes: func() { b.layers["noise.compile_s"] = compileProbe() },
	})
}

// fig4CheckSeed is the non-default seed at which a sequential dense pass
// must equal a parallel one.
const fig4CheckSeed = 2

// fig4AgreeSeeds is how many fig4 seeds, 1 up, the sampler agreement check
// compares dense and bit-sliced at.  The seeds are fixed, so the check
// reads the same on every run of the same code; the timed passes draw
// their seeds from the workload seed.
const fig4AgreeSeeds = 5

// fig4Alpha is the family-wise false-alarm rate of the sampler agreement
// check, that of a two-sided 3 sigma test, split over its comparisons.
const fig4Alpha = 0.0027

// fig4Count is one protocol row of a fig4 section as counts: the
// uncorrectable trials among those that passed verification.
type fig4Count struct{ uncorrectable, accepted int }

// fig4Counts reads the counts of every protocol row of a fig4 section run
// at the given trials, from its "MC uncorrectable" rate (per accepted
// trial) and "Verify reject" rate (per trial) columns.
func fig4Counts(sec report.Section, trials int) (map[string]fig4Count, error) {
	if len(sec.Blocks) != 1 {
		return nil, fmt.Errorf("want one table, got %d blocks", len(sec.Blocks))
	}
	tb, ok := sec.Blocks[0].(report.Table)
	if !ok {
		return nil, fmt.Errorf("block is %T, not a table", sec.Blocks[0])
	}
	if len(tb.Rows) != fig4Protocols {
		return nil, fmt.Errorf("want %d protocol rows, got %d", fig4Protocols, len(tb.Rows))
	}
	counts := map[string]fig4Count{}
	for _, row := range tb.Rows {
		if len(row) < 6 {
			return nil, fmt.Errorf("short row")
		}
		rate, ok1 := row[3].Value().(float64)
		reject, ok2 := row[5].Value().(float64)
		if !ok1 || !ok2 || !(rate >= 0 && rate <= 1 && reject >= 0 && reject <= 1) {
			return nil, fmt.Errorf("protocol %v: bad rates %v, %v", row[0].Value(), row[3].Value(), row[5].Value())
		}
		accepted := math.Round(float64(trials) * (1 - reject))
		unc := rate * accepted
		if math.Abs(unc-math.Round(unc)) > 1e-6*math.Max(1, unc) {
			return nil, fmt.Errorf("protocol %v: rate %v is not a count over %v accepted trials", row[0].Value(), rate, accepted)
		}
		counts[row[0].Text()] = fig4Count{uncorrectable: int(math.Round(unc)), accepted: int(accepted)}
	}
	return counts, nil
}

// samplersAgree tests whether dense and bit-sliced fig4 estimate the same
// uncorrectable rate: per seed and protocol (dense[i] and sliced[i] both
// ran at seed i+1), and per protocol pooled over the seeds.  Each comparison is an exact conditional binomial test (given
// the two counts' total, the dense count is binomial with the dense share
// of accepted trials); the check fails if any p-value falls below alpha
// split over every comparison (Bonferroni).
func samplersAgree(dense []report.Section, denseTrials int, sliced []report.Section, slicedTrials int, alpha float64) error {
	if len(dense) != len(sliced) {
		return fmt.Errorf("fig4: %d dense and %d bit-sliced sections", len(dense), len(sliced))
	}
	type pair struct {
		label string
		d, s  fig4Count
	}
	var tests []pair
	pooled := map[string]*pair{}
	for i := range dense {
		cd, err := fig4Counts(dense[i], denseTrials)
		if err != nil {
			return fmt.Errorf("fig4 dense: %v", err)
		}
		cs, err := fig4Counts(sliced[i], slicedTrials)
		if err != nil {
			return fmt.Errorf("fig4 bit-sliced: %v", err)
		}
		for name, d := range cd {
			s, ok := cs[name]
			if !ok {
				return fmt.Errorf("fig4: protocol %s missing", name)
			}
			tests = append(tests, pair{fmt.Sprintf("%s, seed %d", name, i+1), d, s})
			if pooled[name] == nil {
				pooled[name] = &pair{label: name + ", pooled"}
			}
			q := pooled[name]
			q.d = fig4Count{q.d.uncorrectable + d.uncorrectable, q.d.accepted + d.accepted}
			q.s = fig4Count{q.s.uncorrectable + s.uncorrectable, q.s.accepted + s.accepted}
		}
	}
	for _, q := range pooled {
		tests = append(tests, *q)
	}
	threshold := alpha / float64(len(tests))
	for _, t := range tests {
		n := t.d.uncorrectable + t.s.uncorrectable
		share := float64(t.d.accepted) / float64(t.d.accepted+t.s.accepted)
		if p := binomialTwoSided(t.d.uncorrectable, n, share); p < threshold {
			return fmt.Errorf("fig4 %s: dense %d/%d and bit-sliced %d/%d uncorrectable disagree (p %.3g < %.3g)",
				t.label, t.d.uncorrectable, t.d.accepted, t.s.uncorrectable, t.s.accepted, p, threshold)
		}
	}
	return nil
}

// binomialTwoSided is the two-sided exact p-value of observing x successes
// in n Bernoulli(p) trials: twice the smaller tail, at most 1.
func binomialTwoSided(x, n int, p float64) float64 {
	if n == 0 {
		return 1
	}
	var lo, hi float64 // P(X <= x), P(X >= x)
	for i := 0; i <= n; i++ {
		lg1, _ := math.Lgamma(float64(n + 1))
		lg2, _ := math.Lgamma(float64(i + 1))
		lg3, _ := math.Lgamma(float64(n - i + 1))
		pmf := math.Exp(lg1 - lg2 - lg3 + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
		if i <= x {
			lo += pmf
		}
		if i >= x {
			hi += pmf
		}
	}
	return math.Min(1, 2*math.Min(lo, hi))
}

// probeReps is how many times a standalone probe runs; its median is kept.
const probeReps = 5

func medianOf(reps int, f func() time.Duration) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f().Seconds()
	}
	return summarize(xs).Median
}

// dagProbe times building the dataflow graphs of the paper's three
// benchmark circuits at paper scale.
func dagProbe() float64 {
	var cs []*quantum.Circuit
	for _, bm := range circuits.Benchmarks() {
		c, err := circuits.Generate(bm, paperBits)
		if err != nil {
			return math.NaN()
		}
		cs = append(cs, c)
	}
	return medianOf(probeReps, func() time.Duration {
		t0 := time.Now()
		for _, c := range cs {
			quantum.BuildDAG(c)
		}
		return time.Since(t0)
	})
}

// compileProbe times compiling fig4's four preparation protocols into
// trial programs (a fresh simulator's first trial).
func compileProbe() float64 {
	code := steane.NewCode()
	protocols := steane.StandardProtocols(code)
	return medianOf(probeReps, func() time.Duration {
		t0 := time.Now()
		for _, p := range protocols {
			s, err := noise.NewSimulator(code, p, noise.DefaultModel())
			if err != nil {
				return time.Duration(math.MaxInt64)
			}
			s.MonteCarlo(1, 1)
		}
		return time.Since(t0)
	})
}

// networkEventsProbe counts the kernel events the network experiments fire
// on a fresh sequential engine: the network layer's share of sim.events.
func networkEventsProbe(ids []string, bits int, p core.RunParams) float64 {
	reg := obs.NewRegistry()
	sim.Instrument(reg)
	before := counter(reg.TakeSnapshot(), "qsd_sim_events_total", "")
	exp := newExperiments(1, nil)
	exp.Bits = bits
	if _, err := core.RunReport(context.Background(), exp, p, ids); err != nil {
		return math.NaN()
	}
	return counter(reg.TakeSnapshot(), "qsd_sim_events_total", "") - before
}

// globalCounters reads the package-level counters the sim, noise and
// network layers export.
func (b *bench) globalCounters() map[string]float64 {
	if b.globals == nil {
		b.globals = obs.NewRegistry()
		sim.Instrument(b.globals)
		noise.Instrument(b.globals)
		network.Instrument(b.globals)
	}
	snap := b.globals.TakeSnapshot()
	return map[string]float64{
		"sim.events":       counter(snap, "qsd_sim_events_total", ""),
		"network.reroutes": counter(snap, "qsd_network_reroutes_total", ""),
		"noise.trials":     counter(snap, "qsd_noise_trials_total", "*"),
	}
}

// counter sums a snapshot's series of one family; mode "" takes the
// unlabelled series, "*" every series.
func counter(snap obs.Snapshot, name, mode string) float64 {
	var v float64
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil && (mode == "*" || len(s.Labels) == 0) {
				v += *s.Value
			}
		}
	}
	return v
}

// addPassCounters accumulates one traced pass's counter deltas and engine
// statistics.
func (b *bench) addPassCounters(before, after map[string]float64, eng *engine.Engine, reg *obs.Registry) {
	b.addCounterDeltas(before, after)
	t := eng.Tiers()
	b.layers["engine.jobs"] += counter(reg.TakeSnapshot(), "qsd_engine_jobs_total", "")
	b.layers["engine.coalesced"] += float64(eng.Coalesced())
	b.counts["engine.hits"] += t.MemoryHits
	b.counts["engine.lookups"] += t.MemoryHits + t.MemoryMisses
}

// addCounterDeltas accumulates the change of the global counters.
func (b *bench) addCounterDeltas(before, after map[string]float64) {
	for k, v := range after {
		b.layers[k] += v - before[k]
	}
}

// addStoreCounters accumulates a traced store's operation totals.
func (b *bench) addStoreCounters(ts *timedStore) {
	b.layers["store.get_s"] += ts.getTime().Seconds()
	b.layers["store.hits"] += float64(ts.hits.Load())
	b.layers["store.misses"] += float64(ts.misses.Load())
	if fb := float64(ts.Stats().FileBytes); fb > b.layers["store.file_bytes"] {
		b.layers["store.file_bytes"] = fb
	}
}

// perLayerCounts turns accumulated per-pass counters into per-pass values.
func (b *bench) perLayerCounts() {
	n := float64(b.counts["traced_units"])
	for _, name := range []string{"sim.events", "network.reroutes", "noise.trials", "engine.jobs", "engine.coalesced"} {
		b.layers[name] /= n
	}
	if l := b.counts["engine.lookups"]; l > 0 {
		b.layers["engine.hit_ratio"] = float64(b.counts["engine.hits"]) / float64(l)
	}
}

// noiseCosts divides the noise layer's self time in traced fig4 requests
// by the trials they ran, per sampler.
func (b *bench) noiseCosts() {
	spans, _ := b.rec.snapshot()
	children := map[int64][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	busy := map[string]float64{}
	trials := map[string]float64{}
	for _, tr := range b.traced {
		var sub []span
		stack := []int64{tr.root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sub = append(sub, spans[id-1])
			for _, c := range children[id] {
				stack = append(stack, spans[c].ID)
			}
		}
		busy[tr.mode] += attribute(sub).Layers["noise"]
		trials[tr.mode] += tr.trials
	}
	for _, mode := range []string{"dense", "bitsliced"} {
		if trials[mode] > 0 {
			b.layers["noise."+mode+"_ns_per_trial"] = busy[mode] * 1e9 / trials[mode]
		}
	}
}
