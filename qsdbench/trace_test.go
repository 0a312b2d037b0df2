package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAttributeSequentialSelfTime(t *testing.T) {
	// A 10s root with a 4s child that itself has a 1s child.
	spans := []span{
		{ID: 1, Name: "pass", Layer: "", Start: 0, End: 10e9},
		{ID: 2, Parent: 1, Name: "schedule.characterize", Layer: "schedule", Start: 2e9, End: 6e9},
		{ID: 3, Parent: 2, Name: "circuits.generate", Layer: "circuits", Start: 3e9, End: 4e9},
	}
	a := attribute(spans)
	if !near(a.Wall, 10) || !near(a.Unattributed, 6) || !near(a.Layers["schedule"], 3) || !near(a.Layers["circuits"], 1) {
		t.Fatalf("attribution = %+v", a)
	}
}

func TestAttributeConcurrentChildrenSumToWall(t *testing.T) {
	// Two workers overlap for 2s under one root; the overlap is shared.
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 5e9},
		{ID: 2, Parent: 1, Layer: "network", Start: 0, End: 3e9},
		{ID: 3, Parent: 1, Layer: "microarch", Start: 1e9, End: 4e9},
	}
	a := attribute(spans)
	sum := a.Unattributed
	for _, v := range a.Layers {
		sum += v
	}
	if !near(a.Wall, 5) || !near(sum, a.Wall) {
		t.Fatalf("self times sum to %v, wall %v", sum, a.Wall)
	}
	// network alone 1s, shared 2s (1s each), microarch alone 1s, root 1s.
	if !near(a.Layers["network"], 2) || !near(a.Layers["microarch"], 2) || !near(a.Unattributed, 1) {
		t.Fatalf("attribution = %+v", a)
	}
}

func TestAttributeDisjointRootsSkipIdle(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "", Start: 0, End: 1e9},
		{ID: 2, Layer: "server", Parent: 1, Start: 0, End: 1e9},
		{ID: 3, Layer: "", Start: 5e9, End: 6e9},
	}
	a := attribute(spans)
	if !near(a.Wall, 2) || !near(a.Layers["server"], 1) || !near(a.Unattributed, 1) {
		t.Fatalf("attribution = %+v", a)
	}
}

func TestSnapshotPlacesStoreOpsUnderTheirJob(t *testing.T) {
	r := newRecorder("test")
	t0 := r.epoch
	job := r.add("table2", "core", 0, t0, t0.Add(10))
	r.add("table3", "core", 0, t0, t0.Add(10))
	r.storeOp("store.get", "table2", t0.Add(2), t0.Add(4))
	spans, _ := r.snapshot()
	if spans[2].Parent != job {
		t.Fatalf("store op parent = %d, want the table2 job %d", spans[2].Parent, job)
	}
}

func TestJobLayer(t *testing.T) {
	for _, c := range []struct{ kind, outcome, want string }{
		{"network.sweep", "computed", "network"},
		{"table6", "computed", "factory"},
		{"fig8", "computed", "core"},
		{"schedule.characterize", "cache-memory", "engine"},
		{"noise.mc", "coalesced", "engine"},
	} {
		if got := jobLayer(c.kind, c.outcome); got != c.want {
			t.Errorf("jobLayer(%q, %q) = %q, want %q", c.kind, c.outcome, got, c.want)
		}
	}
}

// A traced drive leaves no request time outside a layer: calls queued for
// the one connection wait in loadgen.connwait, and the server's span sits
// inside loadgen.transport.
func TestDriveAttributesClientSide(t *testing.T) {
	rec := newRecorder("test")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		time.Sleep(5 * time.Millisecond)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		rec.add("server", "server", parent, start, time.Now())
	}))
	defer srv.Close()
	ls := &liveServer{base: srv.URL, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
	ok := func(status int, _ []byte) error { return nil }
	calls := []call{{path: "/a", check: ok}, {path: "/b", check: ok}, {path: "/c", check: ok}}
	b := &bench{}
	for _, r := range b.drive(ls, calls, rec) {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	spans, _ := rec.snapshot()
	att := attribute(spans)
	if share := att.Unattributed / att.Wall; share > 0.01 {
		t.Errorf("unattributed share %.3f, want near 0", share)
	}
	if att.Layers["server"] <= 0 || att.Layers["loadgen"] <= 0 {
		t.Errorf("layers %v: want server and loadgen time", att.Layers)
	}
	waited := 0.0
	for _, s := range spans {
		if s.Name == "loadgen.connwait" {
			waited += float64(s.End-s.Start) / 1e9
		}
	}
	if waited < 0.005 {
		t.Errorf("connection wait %.4fs: calls queued behind one connection should wait", waited)
	}
}
