// Command qsd ("quantum speed of data") regenerates the tables and figures of
// "Running a Quantum Circuit at the Speed of Data" (ISCA 2008) from the
// reproduction library, either as a one-shot batch or as an HTTP service.
//
// Usage:
//
//	qsd <experiment> [flags]
//	qsd serve [flags]
//	qsd loadtest [flags]
//
// Running qsd without arguments prints every experiment with its aliases
// and honoured run parameters, and every flag; the run-parameter flags are
// generated from the parameter table in internal/core.
//
// Every experiment runs as a job batch on the shared experiment engine
// (internal/engine): -parallel selects the worker count, a progress line on
// stderr tracks job completion, and all output is rendered from the engine's
// collected results through one code path (report.Document), so `qsd all
// -parallel 8` and a sequential run print byte-identical reports.  -format
// selects the encoding: text (default, the historical output), json or csv,
// both carrying full-precision values.
//
// -store DIR attaches a persistent result store (internal/store) behind the
// engine cache: computed results are written through to an append-only,
// checksummed log and survive process exit, so a repeated run — or a
// restarted server — answers with key lookups instead of simulations.  One
// writer owns a store directory at a time (flock); further processes fall
// back to read-only sharing (or ask for it with -store-readonly).
// -store-sync picks the fsync policy and -store-max-bytes bounds the live
// bytes kept on disk.  The store never changes results: `qsd all` output is
// byte-identical with and without it, cold or warm.
//
// `qsd serve` starts the HTTP/JSON API of internal/server on -addr, exposing
// the same experiments as parameterized /v1/experiments endpoints backed by
// one shared engine, so repeated and concurrent requests reuse cached and
// in-flight results.  Admission control is tunable (-max-concurrent,
// -max-queue, -queue-timeout, -request-timeout, -rate-limit, -rate-burst);
// SIGINT/SIGTERM trigger a graceful drain bounded by -drain-timeout, after
// which in-flight batches are cancelled.
//
// The server carries the observability layer of internal/obs: GET /metrics
// serves a Prometheus text scrape and GET /v1/metrics a JSON snapshot of the
// same registry (engine jobs and cache tiers, store bytes, per-route request
// latencies, admission counters, sim kernel events, Go runtime gauges);
// experiment requests are traced (X-Trace-Id response header, span tree at
// GET /v1/trace/{id}, trace_id on progress SSE events) and logged as JSON
// lines on stderr (-access-log, -log-level), with spans slower than
// -slow-span flagged.  -debug-addr opens a side listener with /debug/pprof/
// and the metrics endpoints, kept off the public address.
//
// `qsd loadtest` drives an open-loop Poisson load (internal/loadgen) against
// -url, or against an in-process server when -url is empty, and prints the
// measured latency quantiles, shed and error counts.  -lt-rate and
// -lt-duration set the offered load; -lt-mix picks weighted experiments
// ("id[?query]:weight,..."); -lt-cache-hit replays earlier requests at that
// fraction (fingerprint cache hits); -lt-sse opens progress subscriptions at
// that fraction.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/loadgen"
	"speedofdata/internal/obs"
	"speedofdata/internal/report"
	"speedofdata/internal/server"
	"speedofdata/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qsd:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("qsd", flag.ContinueOnError)
	set := core.DefaultSettings()
	set.BindFlags(fs)
	format := fs.String("format", "text", "output format: text, json or csv")
	parallel := fs.Int("parallel", 0, "experiment engine workers (0 = GOMAXPROCS, 1 = sequential)")
	progress := fs.Bool("progress", true, "print a job progress line on stderr")
	addr := fs.String("addr", ":8080", "listen address for qsd serve")
	maxConcurrent := fs.Int("max-concurrent", 0, "serve/loadtest: concurrent experiment requests (0 = 2×GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "serve/loadtest: admission queue depth (0 = default)")
	queueTimeout := fs.Duration("queue-timeout", 0, "serve/loadtest: longest admission wait before shedding (0 = default)")
	requestTimeout := fs.Duration("request-timeout", 0, "serve/loadtest: execution deadline of an admitted request (0 = default)")
	rateLimit := fs.Float64("rate-limit", 0, "serve/loadtest: per-client sustained requests/s (0 = disabled)")
	rateBurst := fs.Int("rate-burst", 0, "serve/loadtest: per-client burst size (0 = derived from -rate-limit)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "serve: graceful shutdown drain deadline")
	debugAddr := fs.String("debug-addr", "", "serve: side listener exposing /debug/pprof/ and the metrics endpoints, kept off the public address (empty = disabled)")
	accessLog := fs.Bool("access-log", true, "serve: emit one structured JSON log line per request on stderr")
	logLevel := fs.String("log-level", "info", "serve: minimum log level (debug, info, warn, error)")
	slowSpan := fs.Duration("slow-span", time.Second, "serve: log traced request spans slower than this (0 = disabled)")
	storeDir := fs.String("store", "", "persistent result store directory (empty = memory-only cache); computed results are written through and survive restarts")
	storeReadonly := fs.Bool("store-readonly", false, "open -store without the writer lock: borrow another process's results, persist nothing")
	storeSync := fs.String("store-sync", "compact", "store fsync policy: compact, always or never")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "store live-byte bound before oldest-entry eviction (0 = 256 MiB)")
	ltURL := fs.String("url", "", "loadtest: target base URL (empty = in-process server)")
	ltRate := fs.Float64("lt-rate", 20, "loadtest: offered arrival rate, requests/s")
	ltDuration := fs.Duration("lt-duration", 5*time.Second, "loadtest: offered load duration")
	ltMix := fs.String("lt-mix", "table5:2,table1:1", "loadtest: weighted mix, \"id[?query]:weight,...\"")
	ltCacheHit := fs.Float64("lt-cache-hit", 0, "loadtest: fraction of requests replaying an earlier URL (cache hits)")
	ltSSE := fs.Float64("lt-sse", 0, "loadtest: fraction of arrivals opening a progress subscription")
	if len(args) == 0 {
		usage(fs)
		return fmt.Errorf("missing experiment id")
	}
	id := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	eng := engine.New(*parallel)
	if *storeDir != "" {
		syncPol, err := store.ParseSyncPolicy(*storeSync)
		if err != nil {
			return err
		}
		opts := store.Options{ReadOnly: *storeReadonly, Sync: syncPol, MaxBytes: *storeMaxBytes}
		st, err := store.Open(*storeDir, opts)
		var locked *store.LockedError
		if errors.As(err, &locked) && !*storeReadonly {
			// Another process owns the directory; borrow its results instead
			// of failing, as a second replica sharing a store dir would.
			fmt.Fprintf(os.Stderr, "qsd: %v\n", err)
			opts.ReadOnly = true
			st, err = store.Open(*storeDir, opts)
		}
		if err != nil {
			return err
		}
		eng.Backend = st
		defer func() {
			stats := st.Stats()
			st.Close()
			fmt.Fprintf(os.Stderr,
				"qsd: store %s: %d hits, %d misses, %d puts, %d entries, %d bytes on disk\n",
				*storeDir, stats.Hits, stats.Misses, stats.Puts, stats.Entries, stats.FileBytes)
		}()
	}
	e := core.NewExperiments()
	e.Bits = set.Bits
	e.Engine = eng
	if err := set.Validate(); err != nil {
		return err
	}

	cfg := server.Config{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *requestTimeout,
		RatePerClient:  *rateLimit,
		BurstPerClient: *rateBurst,
	}

	if id == "serve" {
		if err := cfg.Validate(); err != nil {
			return err
		}
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			return fmt.Errorf("bad -log-level %q: want debug, info, warn or error", *logLevel)
		}
		o := obs.New()
		o.Log = slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
		if *slowSpan > 0 {
			o.Tracer.SetSlowSpan(*slowSpan, o.Log)
		}
		cfg.Obs = o
		cfg.AccessLog = *accessLog
		// Bound the long-lived server: cap the memoisation cache so distinct
		// requests can't grow memory forever, and time out header reads so
		// slow-drip connections can't exhaust the listener.  No WriteTimeout:
		// /v1/progress streams indefinitely.
		eng.CacheLimit = 1 << 14
		h := server.NewWithConfig(e, set.RunParams, cfg)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		if *debugAddr != "" {
			dln, err := net.Listen("tcp", *debugAddr)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "qsd: debug endpoints (pprof, metrics) on %s\n", dln.Addr())
			dbg := &http.Server{Handler: o.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
			go dbg.Serve(dln)
			defer dbg.Close()
		}
		fmt.Fprintf(os.Stderr, "qsd: serving on %s\n", ln.Addr())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return serveUntilShutdown(ctx, ln, h, *drainTimeout)
	}

	if id == "loadtest" {
		if err := cfg.Validate(); err != nil {
			return err
		}
		base := *ltURL
		if base == "" {
			// Spin an in-process server on a loopback port: the loadtest then
			// measures this build end to end with no external dependency.
			eng.CacheLimit = 1 << 14
			h := server.NewWithConfig(e, set.RunParams, cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
			go srv.Serve(ln)
			defer srv.Close()
			base = "http://" + ln.Addr().String()
			fmt.Fprintf(os.Stderr, "qsd: loadtest against in-process server %s\n", base)
		}
		mix, err := parseMix(*ltMix, *ltCacheHit, *ltSSE)
		if err != nil {
			return err
		}
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  base,
			Rate:     *ltRate,
			Duration: *ltDuration,
			Seed:     set.Seed,
			Mix:      mix,
		})
		if err != nil {
			return err
		}
		return writeLoadResult(out, *format, res)
	}

	f, err := report.ParseFormat(*format)
	if err != nil {
		return err
	}
	if *progress {
		eng.Progress = progressLine(os.Stderr)
	}

	ids := []string{id}
	if id == "all" {
		ids = core.AllExperimentOrder
	} else if _, ok := core.CanonicalExperimentID(id); !ok {
		usage(fs)
		return fmt.Errorf("unknown experiment %q", id)
	}

	doc, err := core.RunReport(context.Background(), e, set.RunParams, ids)
	if err != nil {
		return err
	}
	clearProgress(os.Stderr, *progress)
	return doc.Encode(out, f)
}

// serveUntilShutdown runs the HTTP server on ln until ctx cancels (signal),
// then drains: the application layer stops first (SSE streams close, new
// requests get 503), connections drain within the deadline, and past it the
// in-flight experiment batches are cancelled and the server force-closed.
func serveUntilShutdown(ctx context.Context, ln net.Listener, h *server.Server, drain time.Duration) error {
	baseCtx, cancelInFlight := context.WithCancel(context.Background())
	defer cancelInFlight()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "qsd: shutting down, draining for up to %v\n", drain)
	h.Shutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		cancelInFlight()
		srv.Close()
		return fmt.Errorf("drain deadline exceeded, connections force-closed: %v", err)
	}
	return nil
}

// parseMix expands a "-lt-mix" spec into a loadgen mix.  Each comma-separated
// entry is "id[?query]:weight"; the optional query is fixed on every request
// to that endpoint, and a fresh random seed parameter is added to non-replay
// requests so a cache-cold mix defeats the fingerprint cache of experiments
// that honour seed (fig4); the others ignore it and answer from cache.
func parseMix(spec string, cacheHit, sse float64) (loadgen.Mix, error) {
	mix := loadgen.Mix{CacheHit: cacheHit, SSE: sse}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		i := strings.LastIndexByte(entry, ':')
		if i <= 0 || i == len(entry)-1 {
			return mix, fmt.Errorf("bad mix entry %q: want id[?query]:weight", entry)
		}
		weight, err := strconv.ParseFloat(entry[i+1:], 64)
		if err != nil || !(weight > 0) || math.IsInf(weight, 1) {
			return mix, fmt.Errorf("bad mix weight in %q", entry)
		}
		id, fixedQuery := entry[:i], ""
		if j := strings.IndexByte(id, '?'); j >= 0 {
			id, fixedQuery = id[:j], id[j+1:]
		}
		if _, ok := core.CanonicalExperimentID(id); !ok && id != "all" {
			return mix, fmt.Errorf("unknown experiment %q in mix", id)
		}
		fixed, err := url.ParseQuery(fixedQuery)
		if err != nil {
			return mix, fmt.Errorf("bad mix query in %q: %v", entry, err)
		}
		mix.Endpoints = append(mix.Endpoints, loadgen.Endpoint{
			ID:     id,
			Weight: weight,
			Params: func(r *rand.Rand) url.Values {
				v := url.Values{}
				for k, vals := range fixed {
					v[k] = vals
				}
				v.Set("seed", strconv.Itoa(r.Intn(1<<30)))
				return v
			},
		})
	}
	if len(mix.Endpoints) == 0 {
		return mix, fmt.Errorf("empty mix %q", spec)
	}
	return mix, nil
}

// writeLoadResult renders a loadtest result as JSON or a readable summary.
func writeLoadResult(out *os.File, format string, res loadgen.Result) error {
	switch format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case "text", "":
		fmt.Fprintf(out, "offered %.1f/s achieved %.1f/s\n", res.OfferedPerSec, res.AchievedPerSec)
		fmt.Fprintf(out, "sent %d ok %d shed %d errors %d (retry-after on %d/%d sheds)\n",
			res.Sent, res.OK, res.Shed, res.Errors, res.RetryAfterSeen, res.Shed)
		if res.Errors > 0 {
			fmt.Fprintf(out, "error breakdown: %d timeout %d transport %d http-status\n",
				res.Timeouts, res.TransportErrors, res.HTTPErrors)
		}
		fmt.Fprintf(out, "latency p50 %v p90 %v p99 %v p999 %v max %v\n",
			res.P50, res.P90, res.P99, res.P999, res.Max)
		if res.SSESessions > 0 {
			fmt.Fprintf(out, "sse sessions %d events %d\n", res.SSESessions, res.SSEEvents)
		}
		return nil
	default:
		return fmt.Errorf("loadtest supports -format text or json, got %q", format)
	}
}

// progressLine returns an engine progress callback that keeps one updating
// status line on w.  Batch runs carry no trace, so the trace ID is unused
// here; the server's SSE hub is the consumer that forwards it.
func progressLine(w *os.File) func(done, total int, key, traceID string) {
	return func(done, total int, key, traceID string) {
		if i := strings.IndexByte(key, '|'); i > 0 {
			key = key[:i]
		}
		fmt.Fprintf(w, "\r[%4d jobs done] %-24.24s", done, key)
	}
}

func clearProgress(w *os.File, enabled bool) {
	if enabled {
		fmt.Fprintf(w, "\r%-42s\r", "")
	}
}

// usage lists the subcommands, every registered experiment with its
// aliases and the run parameters it honours, and the flags; the
// run-parameter flags come from the parameter table in internal/core.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintln(w, "usage: qsd <experiment> [flags]\n       qsd serve [flags]\n       qsd loadtest [flags]")
	fmt.Fprintf(w, "experiments (id|aliases, [run parameters honoured]; all = %s):\n", strings.Join(core.AllExperimentOrder, " "))
	for _, info := range core.ExperimentInfos() {
		ids := strings.Join(append([]string{info.ID}, info.Aliases...), "|")
		fmt.Fprintf(w, "  %-28s %s [%s]\n", ids, info.Title, strings.Join(info.Params, " "))
	}
	fmt.Fprintln(w, "flags (the run parameters are also /v1/experiments query parameters):")
	fs.PrintDefaults()
}
