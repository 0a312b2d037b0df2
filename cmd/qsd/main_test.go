package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
	"speedofdata/internal/server"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("table1:3, fig4?trials=20000:1", 0.25, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mix.Endpoints) != 2 || mix.CacheHit != 0.25 || mix.SSE != 0.1 {
		t.Fatalf("unexpected mix: %+v", mix)
	}
	if mix.Endpoints[0].ID != "table1" || mix.Endpoints[0].Weight != 3 {
		t.Errorf("first endpoint: %+v", mix.Endpoints[0])
	}
	// The fig4 entry keeps its fixed query and gains a random seed.
	rng := rand.New(rand.NewSource(1))
	v := mix.Endpoints[1].Params(rng)
	if v.Get("trials") != "20000" {
		t.Errorf("fixed query lost: %v", v)
	}
	if v.Get("seed") == "" {
		t.Errorf("random seed param missing: %v", v)
	}

	for _, bad := range []string{
		"",
		"table1",
		"table1:",
		":3",
		"table1:-1",
		"table1:zero",
		"table1:0",
		"table1:NaN",
		"table1:nan",
		"table1:+Inf",
		"table1:Inf",
		"nonsense:1",
		"fig4?%zz:1",
	} {
		if _, err := parseMix(bad, 0, 0); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
}

// TestUsageListsExperimentsAndParams runs qsd without arguments and checks
// the generated usage names every registered experiment (every
// ExperimentIDs id, with its aliases) and every row of the parameter table.
func TestUsageListsExperimentsAndParams(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "usage-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run(nil, f)
	os.Stderr = stderr
	if err == nil {
		t.Fatal("qsd without an experiment id succeeded")
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(out)
	for _, info := range core.ExperimentInfos() {
		if ids := strings.Join(append([]string{info.ID}, info.Aliases...), "|"); !strings.Contains(text, "  "+ids+" ") {
			t.Errorf("usage misses experiment %q with its aliases", info.ID)
		}
	}
	for _, p := range core.Params() {
		if !strings.Contains(text, "  -"+p.Name+" ") && !strings.Contains(text, "  -"+p.Name+"\n") {
			t.Errorf("usage misses parameter -%s", p.Name)
		}
	}
}

// TestLoadtestInProcess runs the loadtest subcommand end to end against its
// own in-process server and checks the JSON report it prints.
func TestLoadtestInProcess(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "loadtest-*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	err = run([]string{
		"loadtest",
		"-lt-rate", "30",
		"-lt-duration", "1s",
		"-lt-mix", "table1:1",
		"-lt-cache-hit", "0.5",
		"-format", "json",
		"-seed", "9",
	}, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Sent int64 `json:"sent"`
		OK   int64 `json:"ok"`
		P50  int64 `json:"p50_ns"`
	}
	if err := json.NewDecoder(f).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.OK != res.Sent {
		t.Errorf("loadtest result: sent=%d ok=%d, want all OK", res.Sent, res.OK)
	}
	if res.P50 <= 0 {
		t.Errorf("p50 %d, want positive", res.P50)
	}
}

// TestServeUntilShutdownGraceful covers the serve drain path without
// signals: an SSE client is connected when shutdown triggers and must see a
// clean stream close (EOF after a complete frame), and the server must stop
// within the drain deadline.
func TestServeUntilShutdownGraceful(t *testing.T) {
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	h := server.New(exp, core.DefaultRunParams())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveUntilShutdown(ctx, ln, h, 5*time.Second) }()

	// Wait for the listener to answer, then hold an SSE stream open.
	var resp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get(base + "/v1/progress")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer resp.Body.Close()

	cancel() // the signal
	body, readErr := io.ReadAll(resp.Body)
	if readErr != nil {
		t.Errorf("SSE stream ended with %v, want clean EOF", readErr)
	}
	if !strings.Contains(string(body), "server shutting down") {
		t.Errorf("SSE stream missing shutdown frame: %q", body)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveUntilShutdown did not return")
	}
}
