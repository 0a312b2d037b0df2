package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speedofdata/internal/core"
	"speedofdata/internal/engine"
)

// TestSSEHubStress churns subscribers while both event kinds publish,
// under the race detector: N subscribers join and leave concurrently with a
// "job" publisher and a "partial" publisher.  Each subscriber must observe
// its events in publication order (drops allowed — the hub sheds to slow
// subscribers — reordering not), because the engine serialises each callback
// kind and the hub fans out under one lock.
func TestSSEHubStress(t *testing.T) {
	h := newProgressHub()

	const (
		subscribers = 16
		churns      = 8   // each subscriber resubscribes this many times
		events      = 500 // per publisher
	)

	var stop atomic.Bool
	var pubs sync.WaitGroup
	pubs.Add(2)
	go func() {
		defer pubs.Done()
		for i := 1; i <= events; i++ {
			h.broadcast(i, events, "job-key", "")
		}
	}()
	go func() {
		defer pubs.Done()
		for i := 1; i <= events; i++ {
			h.broadcastPartial("partial-key", i, nil)
		}
	}()

	var subs sync.WaitGroup
	for s := 0; s < subscribers; s++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for c := 0; c < churns; c++ {
				ch := h.subscribe()
				lastJob, lastPartial := 0, 0
				for drained := false; !drained; {
					select {
					case ev := <-ch:
						switch d := ev.data.(type) {
						case progressEvent:
							if d.Done <= lastJob {
								t.Errorf("job events reordered: %d after %d", d.Done, lastJob)
							}
							lastJob = d.Done
						case partialEvent:
							if d.Seq <= lastPartial {
								t.Errorf("partial events reordered: %d after %d", d.Seq, lastPartial)
							}
							lastPartial = d.Seq
						}
					default:
						// Nothing buffered right now; churn on once the
						// publishers are done and the channel is dry.
						if stop.Load() {
							drained = true
						}
					}
				}
				h.unsubscribe(ch)
			}
		}()
	}

	pubs.Wait()
	stop.Store(true)
	subs.Wait()

	if n := h.subscribers(); n != 0 {
		t.Errorf("%d subscribers leaked in the hub map", n)
	}
}

// TestSSEHubNoGoroutineLeaks drives real SSE connections against an
// httptest server while experiments publish, disconnects them all, and
// checks the goroutine count returns to its baseline: neither the hub nor
// the handlers may strand readers.
func TestSSEHubNoGoroutineLeaks(t *testing.T) {
	exp := core.NewExperiments()
	exp.Engine = engine.New(2)
	srv := New(exp, core.DefaultRunParams())
	hts := httptest.NewServer(srv)
	t.Cleanup(hts.Close)
	ts := hts.URL

	before := runtime.NumGoroutine()

	const clients = 8
	ctx, cancel := context.WithCancel(context.Background())
	var got [clients]atomic.Int64
	var readers sync.WaitGroup
	for i := 0; i < clients; i++ {
		req, err := http.NewRequestWithContext(ctx, "GET", ts+"/v1/progress", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func(i int, body *bufio.Scanner, closer func() error) {
			defer readers.Done()
			defer closer()
			for body.Scan() {
				if strings.HasPrefix(body.Text(), "data: ") {
					got[i].Add(1)
				}
			}
		}(i, bufio.NewScanner(resp.Body), resp.Body.Close)
	}

	// Publish through the real engine path: a fresh-parameter run emits job
	// events every subscriber should see.
	status, _, _ := get(t, ts+"/v1/experiments/table2?bits=20")
	if status != http.StatusOK {
		t.Fatalf("experiment run: status %d", status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < clients; i++ {
		for got[i].Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("client %d saw no events", i)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	cancel()
	readers.Wait()

	// Handlers unwind asynchronously after the client context cancels; poll
	// until the goroutine count returns to baseline (small tolerance for
	// runtime and http.Transport housekeeping goroutines).
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if n := srv.hub.subscribers(); n != 0 {
		t.Errorf("%d subscribers still registered after disconnects", n)
	}
}

// TestSSEEventOrderPerSubscriberOverHTTP asserts the per-subscriber ordering
// guarantee end to end: partial events of one CI-mode run arrive with
// strictly increasing seq on a real SSE connection.
func TestSSEEventOrderPerSubscriberOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	events := subscribeSSE(t, ts.URL)

	status, _, _ := get(t, ts.URL+"/v1/experiments/fig4?ci=0.15&trials=65536&seed=3")
	if status != http.StatusOK {
		t.Fatalf("fig4 run: status %d", status)
	}

	last := map[string]int{} // per-protocol partial seq
	deadline := time.After(10 * time.Second)
	seen := 0
	for seen < 8 { // a few partials per protocol are plenty to catch reorder
		select {
		case ev := <-events:
			if ev.name != "partial" {
				continue
			}
			var p struct {
				Key string `json:"key"`
				Seq int    `json:"seq"`
			}
			if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
				t.Fatalf("bad partial %q: %v", ev.data, err)
			}
			if p.Seq <= last[p.Key] {
				t.Errorf("%s: seq %d arrived after %d", p.Key, p.Seq, last[p.Key])
			}
			last[p.Key] = p.Seq
			seen++
		case <-deadline:
			t.Fatalf("only %d partials before deadline", seen)
		}
	}
}
