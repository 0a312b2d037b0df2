package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/obs"
	"speedofdata/internal/report"
	"speedofdata/internal/server"
	"speedofdata/internal/store"
)

// serve-mixed settings.
const (
	// serveRate is the open loop's offered load, requests per second: a
	// sixteenth of the highest rate the server sustained without a growing
	// backlog in the `run.sh ladder` measurement (1600 rps; LAYERS.md).
	// The cold requests then hold the server about 11% of the time, so the
	// median request does not queue behind them even when the shared host
	// runs at half speed; at 400 rps it did, and the median jumped between
	// runs.
	serveRate = 100.0
	// latencyLimit is the p99 limit: the run record's goodput counts 2xx
	// responses within it, and failed or shed requests count as over it.
	// It is about the slowest request a lightly loaded server answers (the
	// median of the ladder's per-rung maximum latency at 200-800 rps was
	// 94 ms), so the cold tail reaches it and requests beyond it were
	// delayed by load.
	latencyLimit = 100 * time.Millisecond
	// clientTimeout bounds one request; a timed-out request fails and
	// counts at this latency.
	clientTimeout = 30 * time.Second
	// serveSetupReps are the set-up-only server starts before the rounds.
	serveSetupReps = 10
	// restartsPerRound are the restarts over each round's filled store.
	restartsPerRound = 5
	// spanHeader carries the benchmark's request span id to the server
	// middleware of a traced run.
	spanHeader = "X-Bench-Span"
)

// call is one scheduled request of the open-loop load generator.
type call struct {
	due   time.Duration // since the schedule's start
	path  string
	class string // "warm" or one of coldKinds
	check func(status int, body []byte) error
}

// callResult is how one call went.
type callResult struct {
	lat time.Duration // due time to the end of the response body
	lag time.Duration // due time to the moment the generator sent it
	err error
}

// liveServer is a qsd server over a result store: in this process for a
// traced run, else in a server process of its own (as `qsd serve` runs),
// so the open-loop load generator and the server do not share a Go
// scheduler.
type liveServer struct {
	base   string
	client *http.Client

	// In-process server.
	srv    *http.Server
	h      *server.Server
	store  *timedStore
	o      *obs.Obs // nil when untraced
	served chan error

	// Server process.
	proc  *exec.Cmd
	stdin io.WriteCloser
}

// newServer builds a server with default admission over the store in dir
// and starts serving it on a loopback port.
func (b *bench) newServer(dir string, traced bool) (*liveServer, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	ls := &liveServer{store: &timedStore{Store: st}, served: make(chan error, 1)}
	exp := core.NewExperiments()
	exp.Bits = paperBits
	exp.Engine = engine.New(0)
	exp.Engine.Backend = ls.store
	exp.Engine.CacheLimit = 1 << 14 // as qsd serve bounds its memory tier
	cfg := server.Config{}
	if traced {
		ls.store.rec = b.rec
		ls.o = &obs.Obs{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(1 << 14)}
		cfg.Obs = ls.o
	}
	ls.h = server.NewWithConfig(exp, core.DefaultRunParams(), cfg)
	var handler http.Handler = ls.h
	if traced {
		handler = b.middleware(ls.h, ls.o.Tracer)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	ls.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { ls.served <- ls.srv.Serve(ln) }()
	ls.base = "http://" + ln.Addr().String()
	return ls, nil
}

// serveProcess is the server process: it serves the store in dir, prints
// its address, and stops when its standard input closes.
func serveProcess(dir string) error {
	b := &bench{}
	ls, err := b.newServer(dir, false)
	if err != nil {
		return err
	}
	fmt.Println(ls.base)
	io.Copy(io.Discard, os.Stdin)
	return ls.stopInProcess()
}

// startServer starts a server over the store in dir and returns once
// /v1/healthz answers 200, with the time that took.
func (b *bench) startServer(dir string, traced bool) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	var ls *liveServer
	var err error
	if b.trace {
		ls, err = b.newServer(dir, traced)
	} else {
		ls, err = startServerProcess(dir)
	}
	if err != nil {
		return nil, 0, err
	}
	nproc := runtime.NumCPU()
	ls.client = &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	for {
		status, _, err := get(ls.client, ls.base+"/v1/healthz", 0, nil)
		if err == nil && status == http.StatusOK {
			break
		}
		if time.Since(t0) > 10*time.Second {
			ls.stop()
			return nil, 0, fmt.Errorf("server did not become healthy: status %d, %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
	return ls, time.Since(t0), nil
}

// startServerProcess runs this binary as a server process over dir.
func startServerProcess(dir string) (*liveServer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--serve-store", dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ls := &liveServer{proc: cmd, stdin: stdin}
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		ls.stop()
		return nil, fmt.Errorf("server process: %w", err)
	}
	ls.base = strings.TrimSpace(addr)
	return ls, nil
}

// stop shuts the server down and waits until it has exited.
func (ls *liveServer) stop() error {
	if ls.client != nil {
		ls.client.CloseIdleConnections()
	}
	if ls.proc == nil {
		return ls.stopInProcess()
	}
	ls.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- ls.proc.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		ls.proc.Process.Kill()
		<-done
		return fmt.Errorf("server process did not stop; killed")
	}
}

// stopInProcess drains the in-process server, waits for it to exit and
// closes its store.
func (ls *liveServer) stopInProcess() error {
	ls.h.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := ls.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// get fetches url, tagging it with the benchmark span id when nonzero and
// calling gotConn, when not nil, once the request holds a connection.
func get(client *http.Client, url string, spanID int64, gotConn func()) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	if gotConn != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(),
			&httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { gotConn() }}))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// drive runs an open-loop schedule: each call is sent at its due time
// whether or not earlier calls have finished, over the client's capped
// connection pool, and is timed from its due time, so a stall delays every
// call behind it.  A traced drive records a span per call, split into the
// generator's lateness, the wait for one of the pool's connections, and
// the transport (with the server's handler span inside it), so the traced
// wall time is the time some call was in flight and all of it belongs to
// a layer.
func (b *bench) drive(ls *liveServer, calls []call, rec *recorder) []callResult {
	results := make([]callResult, len(calls))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range calls {
		due := t0.Add(c.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, c call, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			id := rec.add("request", "", 0, due, sent)
			rec.add("loadgen.lag", "loadgen", id, due, sent)
			wait := rec.begin("loadgen.connwait", "loadgen", id)
			xfer := rec.begin("loadgen.transport", "loadgen", id)
			var gotConn func()
			var conn time.Time
			if rec != nil {
				gotConn = func() { conn = time.Now() }
			}
			status, body, err := get(ls.client, ls.base+c.path, xfer, gotConn)
			end := time.Now()
			if rec != nil {
				if conn.IsZero() {
					conn = end
				}
				rec.set(wait, sent, conn)
				rec.set(xfer, conn, end)
				rec.finish(id)
				b.responseBytes.Add(int64(len(body)))
			}
			if err == nil {
				err = c.check(status, body)
			}
			if err != nil {
				err = fmt.Errorf("GET %s: %w", c.path, err)
			}
			results[i] = callResult{lat: end.Sub(due), lag: sent.Sub(due), err: err}
		}(i, c, due)
	}
	wg.Wait()
	return results
}

// middleware times the server's handler for each experiment request and
// records it, with the program's own spans for the request, under the
// benchmark's request span.
func (b *bench) middleware(h http.Handler, tracer *obs.Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if !strings.HasPrefix(r.URL.Path, "/v1/experiments/") {
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := b.rec.add("server", "server", parent, start, end)
		if tr, ok := tracer.Get(w.Header().Get("X-Trace-Id")); ok {
			root := b.rec.importObs(tr, id, "handler", "server")
			if r.PathValue("id") == "fig4" || strings.HasSuffix(r.URL.Path, "/fig4") {
				q := r.URL.Query()
				trials, _ := strconv.Atoi(q.Get("trials"))
				b.handlerMu.Lock()
				b.traced = append(b.traced, tracedRequest{root: root, mode: fig4Mode(q.Get("bitsliced")),
					trials: float64(trials * fig4Protocols)})
				b.handlerMu.Unlock()
			}
		}
		b.handlerMu.Lock()
		b.handlerMs = append(b.handlerMs, float64(end.Sub(start))/float64(time.Millisecond))
		b.handlerMu.Unlock()
	})
}

func fig4Mode(bitsliced string) string {
	if ok, _ := strconv.ParseBool(bitsliced); ok {
		return "bitsliced"
	}
	return "dense"
}

// warmCalls is the warm set: every replay-family experiment as text, all
// due at once, each checked against its recorded digest.
func (b *bench) warmCalls() []call {
	var calls []call
	for _, id := range replayIDs() {
		calls = append(calls, call{path: "/v1/experiments/" + id + "?format=text", class: "warm", check: b.digestCheck(id)})
	}
	return calls
}

func (b *bench) digestCheck(label string) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		if got, want := digestOf(body), b.digests[label]; got != want {
			return fmt.Errorf("%s: response digest %s, recorded %s", label, got[:12], want[:12])
		}
		return nil
	}
}

// jsonCheck accepts a 200 response holding one well-formed section of id.
func jsonCheck(id string) func(int, []byte) error {
	return func(status int, body []byte) error {
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %.200s", status, body)
		}
		var doc struct {
			Sections []struct {
				ID     string            `json:"id"`
				Blocks []json.RawMessage `json:"blocks"`
			} `json:"sections"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("bad JSON: %v", err)
		}
		if len(doc.Sections) != 1 || doc.Sections[0].ID != id || len(doc.Sections[0].Blocks) == 0 {
			return fmt.Errorf("want one non-empty %s section", id)
		}
		return nil
	}
}

// coldKinds are the cold request classes of the open loop, with the share
// of all requests each takes; each draws its parameters fresh from the
// seed.  No record of qsd's operator traffic exists, so the mix is
// synthetic: a minority of requests are cold, split equally among the
// kinds since none is known to be more common (LAYERS.md).
var coldKinds = []struct {
	name  string
	share float64
}{
	{"fig4-dense", 0.01},
	{"fig4-bitsliced", 0.01},
	{"fig15", 0.01},
	{"netsweep", 0.01},
	{"contention", 0.01},
}

// openLoop draws the open-loop schedule from the seed: rate×d
// arrivals placed as a Poisson process conditioned on that count (sorted
// uniform times), each cold kind taking its share and the rest cycling
// through the warm set, all in an order drawn from the seed.  Fixing each
// class's count keeps runs with different seeds comparable.
func (b *bench) openLoop(rng *rand.Rand, d time.Duration, rate float64) (calls []call, nets []netRequest) {
	warm := b.warmCalls()
	n := int(rate * d.Seconds())
	for _, k := range coldKinds {
		kind := k.name
		for i := 0; i < int(k.share*float64(n)); i++ {
			// Effort ranges that keep every other cold kind well below fig4
			// dense; a buffer capacity drawn alongside bits keeps most
			// contention and netsweep keys distinct, so they stay cold.
			bits := 12 + rng.Intn(9)
			var c call
			switch kind {
			case "fig4-dense":
				c = call{path: fmt.Sprintf("/v1/experiments/fig4?trials=%d&seed=%d", 3000+rng.Intn(501), 2+rng.Int63n(1<<30))}
			case "fig4-bitsliced":
				c = call{path: fmt.Sprintf("/v1/experiments/fig4?bitsliced=true&trials=%d&seed=%d", 200_000+rng.Intn(100_001), 2+rng.Int63n(1<<30))}
			case "fig15":
				c = call{path: fmt.Sprintf("/v1/experiments/fig15?bits=%d", bits)}
			case "contention":
				c = call{path: fmt.Sprintf("/v1/experiments/contention?bits=%d&buffer=%d", bits-4, 4+rng.Intn(61))}
			default:
				buffer := 4 + rng.Intn(61)
				nets = append(nets, netRequest{bits, buffer})
				c = call{path: fmt.Sprintf("/v1/experiments/netsweep?bits=%d&buffer=%d", bits, buffer)}
			}
			c.class = kind
			c.check = jsonCheck(strings.TrimSuffix(strings.TrimSuffix(kind, "-dense"), "-bitsliced"))
			calls = append(calls, c)
		}
	}
	for i := 0; len(calls) < n; i++ {
		calls = append(calls, warm[i%len(warm)])
	}
	rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
	due := make([]float64, len(calls))
	for i := range due {
		due[i] = rng.Float64() * d.Seconds()
	}
	sort.Float64s(due)
	for i := range calls {
		calls[i].due = time.Duration(due[i] * float64(time.Second))
	}
	return calls, nets
}

// p50Window is the span of due times each req_p50_ms sample covers.
const p50Window = time.Second

// windowMedians is the median latency, in milliseconds, of the calls due in
// each whole window of the loop; a failed call counts at the client timeout.
func windowMedians(calls []call, results []callResult, window time.Duration) []float64 {
	byWindow := map[int64][]float64{}
	var last int64
	for i, c := range calls {
		l := results[i].lat
		if results[i].err != nil {
			l = clientTimeout
		}
		w := int64(c.due / window)
		byWindow[w] = append(byWindow[w], float64(l)/float64(time.Millisecond))
		last = max(last, w)
	}
	var out []float64
	for w := int64(0); w < last; w++ { // the last window is partial
		if xs := byWindow[w]; len(xs) > 0 {
			out = append(out, median(sortedCopy(xs)))
		}
	}
	return out
}

// netRequest is the parameters of one cold netsweep request.
type netRequest struct{ bits, buffer int }

// allDone is the time until the last of a batch of calls finished, or an
// error when any failed.
func (b *bench) allDone(results []callResult) (time.Duration, bool) {
	var last time.Duration
	ok := true
	for _, r := range results {
		if !b.check(r.err) {
			ok = false
		}
		if r.lat > last {
			last = r.lat
		}
	}
	return last, ok
}

// serverCounters adds a traced server's engine, admission and store
// totals to the per-layer values.
func (b *bench) serverCounters(ls *liveServer) {
	snap := ls.o.Registry.TakeSnapshot()
	b.layers["engine.jobs"] += counter(snap, "qsd_engine_jobs_total", "")
	b.layers["engine.coalesced"] += counter(snap, "qsd_engine_coalesced_total", "")
	hits := counter(snap, "qsd_engine_cache_hits_total", "")
	b.counts["engine.hits"] += int(hits)
	b.counts["engine.lookups"] += int(hits + counter(snap, "qsd_engine_cache_misses_total", ""))
	b.layers["server.admitted"] += counter(snap, "qsd_server_admitted_total", "")
	b.layers["server.shed"] += counter(snap, "qsd_server_shed_total", "")
	b.layers["store.put_s"] += ls.store.putTime().Seconds()
	b.addStoreCounters(ls.store)
}

// watchQueue samples a traced server's admission queue depth until stop
// closes, keeping the maximum.
func (b *bench) watchQueue(ls *liveServer, stop <-chan struct{}, done chan<- float64) {
	max := 0.0
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			done <- max
			return
		case <-tick.C:
			snap := ls.o.Registry.TakeSnapshot()
			for _, f := range snap.Families {
				if f.Name == "qsd_server_queue_depth" && len(f.Series) == 1 && f.Series[0].Value != nil && *f.Series[0].Value > max {
					max = *f.Series[0].Value
				}
			}
		}
	}
}

func runServe(b *bench) error {
	rounds := int(b.seconds * 2 / (3 * time.Second))
	if rounds < minPasses {
		rounds = minPasses
	}
	loop := b.seconds * 3 / 5
	dirs := 0
	fresh := func() string {
		dirs++
		return filepath.Join(b.tmp, fmt.Sprintf("store-%d", dirs))
	}
	for i := 0; i < serveSetupReps; i++ {
		runtime.GC()
		ls, setup, err := b.startServer(fresh(), false)
		if err != nil {
			return err
		}
		b.sample("setup_s", setup.Seconds())
		if err := ls.stop(); err != nil {
			return err
		}
	}

	// Rounds: a cold pass over the warm set on a fresh server and store,
	// then servers restarted over the same store answering it again.  A
	// restart is timed from the moment the restarted server is healthy (its
	// start is what setup_s measures) to its last warm-set answer.
	var tracedPass, untracedPass []float64
	var lastDir string
	for r := 0; r < rounds; r++ {
		traced := b.trace && r%2 == 0
		var rec *recorder
		if traced {
			rec = b.rec
		}
		lastDir = fresh()
		b.calibrate()
		before := b.globalCounters()
		runtime.GC()
		ls, _, err := b.startServer(lastDir, traced)
		if err != nil {
			return err
		}
		pass, ok := b.allDone(b.drive(ls, b.warmCalls(), rec))
		if traced {
			b.serverCounters(ls)
		}
		if err := ls.stop(); err != nil {
			return err
		}
		switch {
		case traced:
			tracedPass = append(tracedPass, pass.Seconds())
		case b.trace:
			untracedPass = append(untracedPass, pass.Seconds())
		case ok:
			b.sample("pass_s", pass.Seconds())
		}
		for k := 0; k < restartsPerRound; k++ {
			b.calibrate()
			runtime.GC()
			ls, _, err := b.startServer(lastDir, traced)
			if err != nil {
				return err
			}
			restart, ok := b.allDone(b.drive(ls, b.warmCalls(), rec))
			if traced {
				b.serverCounters(ls)
			}
			if err := ls.stop(); err != nil {
				return err
			}
			if ok && !b.trace {
				b.sample("restart_s", restart.Seconds())
			}
		}
		if traced {
			b.addCounterDeltas(before, b.globalCounters())
		}
	}

	// The open loop, on a server restarted over the last round's store.
	calls, nets := b.openLoop(rand.New(rand.NewSource(b.rng.Int63())), loop, serveRate)
	if len(calls) < minLoopCalls {
		return fmt.Errorf("open loop of %d requests: --seconds too short", len(calls))
	}
	before := b.globalCounters()
	runtime.GC()
	ls, _, err := b.startServer(lastDir, b.trace)
	if err != nil {
		return err
	}
	var stopWatch chan struct{}
	watched := make(chan float64, 1)
	if b.trace {
		stopWatch = make(chan struct{})
		go b.watchQueue(ls, stopWatch, watched)
	}
	results := b.drive(ls, calls, b.rec)
	if b.trace {
		close(stopWatch)
		b.layers["server.queue_depth_max"] = <-watched
		b.serverCounters(ls)
		b.addCounterDeltas(before, b.globalCounters())
	}
	if err := ls.stop(); err != nil {
		return err
	}
	st := b.loopStats(calls, results, latencyLimit)
	b.detail["open_loop"] = map[string]any{"rate_rps": serveRate, "seconds": loop.Seconds(),
		"latency_limit_ms": latencyLimit.Milliseconds(), "stats": st}
	b.counts["requests"] = st.Requests
	b.layers["loadgen.lag_ms_p99"] = st.LagP99
	// The median is sampled per window of the loop, so a slow spell of the
	// host moves a few samples of the run rather than a whole process's
	// one; the p99 needs the whole loop's requests.
	for _, p50 := range windowMedians(calls, results, p50Window) {
		b.sample("req_p50_ms", p50)
	}
	b.sample("req_p99_ms", st.P99)

	if b.trace {
		b.counts["traced_units"] = 1
		b.layers["trace.overhead_ratio"] = summarize(tracedPass).Median / summarize(untracedPass).Median
		hm := sortedCopy(b.handlerMs)
		b.layers["server.handler_ms_p50"] = percentile(hm, 0.50)
		b.layers["server.handler_ms_p99"] = percentile(hm, 0.99)
		if l := b.counts["engine.lookups"]; l > 0 {
			b.layers["engine.hit_ratio"] = float64(b.counts["engine.hits"]) / float64(l)
		}
		b.layers["quantum.dag_s"] = dagProbe()
		b.layers["noise.compile_s"] = compileProbe()
		b.layers["network.events"] = netsweepEvents(nets)
		b.noiseCosts()
		b.layers["report.bytes"] = float64(b.responseBytes.Load())
		b.layers["report.encode_s"] = encodeProbe(lastDir, warmServed(calls, results))
	}
	return nil
}

// loopStats is what one open loop measured.  Latencies are in
// milliseconds from each request's due time; a failed request counts at
// the client timeout.
type loopStats struct {
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	P50      float64 `json:"p50_ms"`
	P90      float64 `json:"p90_ms"`
	P99      float64 `json:"p99_ms"`
	Max      float64 `json:"max_ms"`
	// Goodput is the 2xx responses within the latency limit per second of
	// the loop, from its start to its last response.
	Goodput float64 `json:"goodput_rps"`
	// OverLimit is the share of requests that failed or took longer than
	// the limit.
	OverLimit float64 `json:"over_limit"`
	LagP99    float64 `json:"lag_ms_p99"`
	// Backlog is the median latency of the last quarter of the requests
	// (by due time) over that of the first quarter: well above 1 when
	// requests arrive faster than they are served.
	Backlog float64                       `json:"backlog"`
	Classes map[string]map[string]float64 `json:"classes"`
}

// minLoopCalls is the fewest requests an open loop is summarised from.
const minLoopCalls = 4

// loopStats summarises an open loop's results (at least minLoopCalls),
// counting each request as one checked operation.
func (b *bench) loopStats(calls []call, results []callResult, limit time.Duration) loopStats {
	st := loopStats{Requests: len(results), Classes: map[string]map[string]float64{}}
	lat := make([]float64, len(results))
	var lag []float64
	byClass := map[string][]float64{}
	var elapsed time.Duration
	good := 0
	for i, r := range results {
		l := r.lat
		if !b.check(r.err) {
			l = clientTimeout
			st.Failed++
		} else if l <= limit {
			good++
		}
		if end := calls[i].due + r.lat; end > elapsed {
			elapsed = end
		}
		lat[i] = float64(l) / float64(time.Millisecond)
		byClass[calls[i].class] = append(byClass[calls[i].class], lat[i])
		lag = append(lag, float64(r.lag)/float64(time.Millisecond))
	}
	for class, xs := range byClass {
		s := sortedCopy(xs)
		st.Classes[class] = map[string]float64{"n": float64(len(s)), "p50_ms": percentile(s, 0.5), "p99_ms": percentile(s, 0.99)}
	}
	q := len(lat) / 4
	st.Backlog = median(sortedCopy(lat[len(lat)-q:])) / median(sortedCopy(lat[:q]))
	s := sortedCopy(lat)
	st.P50, st.P90, st.P99, st.Max = percentile(s, 0.5), percentile(s, 0.9), percentile(s, 0.99), s[len(s)-1]
	st.Goodput = float64(good) / elapsed.Seconds()
	st.OverLimit = 1 - float64(good)/float64(len(results))
	st.LagP99 = percentile(sortedCopy(lag), 0.99)
	return st
}

// warmServed counts the open loop's successful warm-set responses by
// experiment id.
func warmServed(calls []call, results []callResult) map[string]int {
	n := map[string]int{}
	for i, c := range calls {
		if id, ok := strings.CutSuffix(strings.TrimPrefix(c.path, "/v1/experiments/"), "?format=text"); ok && results[i].err == nil {
			n[id]++
		}
	}
	return n
}

// encodeProbe times the report layer's share of the warm path: encoding
// each warm-set section as text as many times as the open loop served it.
// The sections come from the store the server used.
func encodeProbe(dir string, served map[string]int) float64 {
	st, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		return math.NaN()
	}
	defer st.Close()
	exp := newExperiments(0, st)
	ids := replayIDs()
	doc, err := core.RunReport(context.Background(), exp, core.DefaultRunParams(), ids)
	if err != nil {
		return math.NaN()
	}
	t0 := time.Now()
	for i, sec := range doc.Sections {
		one := report.Document{Sections: []report.Section{sec}}
		for k := 0; k < served[ids[i]]; k++ {
			one.Encode(io.Discard, report.FormatText)
		}
	}
	return time.Since(t0).Seconds()
}

// netsweepEvents counts the kernel events of the open loop's distinct cold
// netsweep requests, each run alone on a fresh sequential engine.
func netsweepEvents(nets []netRequest) float64 {
	seen := map[netRequest]bool{}
	total := 0.0
	for _, n := range nets {
		if seen[n] {
			continue
		}
		seen[n] = true
		p := core.DefaultRunParams()
		p.Buffer = n.buffer
		total += networkEventsProbe([]string{"netsweep"}, n.bits, p)
	}
	return total
}
