package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"speedofdata/internal/obs"
)

// span is one timed step of a traced run.  Spans the benchmark opens around
// its calls into a layer carry that layer's name; engine job spans imported
// from the program's own tracer are mapped to a layer by their job kind.  A
// span with an empty layer is time the benchmark cannot attribute (its own
// pass and request roots).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`

	// kind is the engine job kind a store operation served; it places the
	// operation under the job span that issued it.
	kind string
}

// recorder keeps a traced run's spans in memory until the run ends.  Every
// method accepts a nil receiver and does nothing, so untraced code paths
// call it unconditionally.
type recorder struct {
	run   string
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span and returns its id.
func (r *recorder) add(name, layer string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Start: r.ns(start), End: r.ns(end), Run: r.run})
	return id
}

// begin opens a span whose end is set by finish.
func (r *recorder) begin(name, layer string, parent int64) int64 {
	now := time.Now()
	return r.add(name, layer, parent, now, now)
}

// set gives a span begun earlier its start and end.
func (r *recorder) set(id int64, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = r.ns(start), r.ns(end)
	r.mu.Unlock()
}

func (r *recorder) finish(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// storeOp records one store call made on behalf of an engine job of kind.
func (r *recorder) storeOp(name, kind string, start, end time.Time) {
	if r == nil {
		return
	}
	id := r.add(name, "store", 0, start, end)
	r.mu.Lock()
	r.spans[id-1].kind = kind
	r.mu.Unlock()
}

// importObs copies a finished program trace under parent: its root becomes
// a span named rootName in rootLayer, every engine job span keeps its kind
// as its name and takes the layer of that kind.  It returns the root's id.
func (r *recorder) importObs(tr *obs.Trace, parent int64, rootName, rootLayer string) int64 {
	if r == nil || tr == nil {
		return 0
	}
	ids := map[int64]int64{}
	for _, s := range tr.Spans() {
		if s.End.IsZero() {
			continue
		}
		layer, p := rootLayer, parent
		name := rootName
		if s.Parent != 0 {
			layer, p, name = jobLayer(s.Name, s.Outcome), ids[s.Parent], s.Name
		}
		ids[s.ID] = r.add(name, layer, p, s.Start, s.End)
	}
	r.mu.Lock()
	r.dropped += tr.Dropped()
	r.mu.Unlock()
	return ids[tr.Root().ID]
}

// kindLayers maps engine job kinds (stage names and experiment ids) to the
// layer doing the work.  Unlisted kinds are experiment composition in core.
var kindLayers = map[string]string{
	"circuits.generate":     "circuits",
	"schedule.characterize": "schedule",
	"schedule.throughput":   "schedule",
	"core.figure7":          "schedule",
	"core.figure8":          "schedule",
	"core.contention":       "schedule",
	"microarch.simulate":    "microarch",
	"microarch.buffersweep": "microarch",
	"network.sweep":         "network",
	"network.faultsweep":    "network",
	"network.degrade":       "network",
	"core.netcontention":    "network",
	"core.factorysim":       "factory",
	"table5":                "factory",
	"table6":                "factory",
	"table7":                "factory",
	"table8":                "factory",
	"simple-factory":        "factory",
	"core.figure4":          "noise",
	"noise.mc":              "noise",
	"fig4":                  "noise",
	"fowler.search":         "fowler",
	"fowler.cascade":        "fowler",
	"fowler":                "fowler",
}

// jobLayer is the layer of an engine job span: the engine itself for jobs
// answered from a cache tier or by waiting on an identical job, else the
// layer of the job's kind.
func jobLayer(kind, outcome string) string {
	switch outcome {
	case "cache-memory", "cache-store", "coalesced":
		return "engine"
	}
	if l, ok := kindLayers[kind]; ok {
		return l
	}
	return "core"
}

// snapshot returns the recorded spans with store operations placed under
// the innermost job span of their kind that encloses them.
func (r *recorder) snapshot() ([]span, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	dropped := r.dropped
	r.mu.Unlock()
	byName := map[string][]int{}
	for i, s := range spans {
		if s.kind == "" {
			byName[s.Name] = append(byName[s.Name], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.kind == "" {
			continue
		}
		best := -1
		for _, j := range byName[s.kind] {
			c := spans[j]
			if c.Start <= s.Start && c.End >= s.End && (best < 0 || c.Start > spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
	return spans, dropped
}

// attribution splits the wall time the spans cover among layers.
type attribution struct {
	// Wall is the length of the union of the spans' intervals.
	Wall float64 `json:"wall_s"`
	// Layers holds each layer's self time; Unattributed the self time of
	// spans with no layer.  Together they sum to Wall.
	Layers       map[string]float64 `json:"layers_s"`
	Unattributed float64            `json:"unattributed_s"`
}

// attribute computes self times: each instant is shared equally among the
// innermost spans active then (active spans with no active child).  For
// sequential work this is a span's duration minus the part its children
// cover; for work running on several goroutines at once it still sums to
// the wall time, because concurrent spans split the instant.
func attribute(spans []span) attribution {
	type event struct {
		t     int64
		start bool
		i     int
	}
	index := make(map[int64]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start {
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })

	active := make([]bool, len(spans))
	busyKids := make([]int, len(spans))
	inner := make([]bool, len(spans))
	layerCount := map[string]int{}
	total := 0
	setInner := func(i int, on bool) {
		if inner[i] == on {
			return
		}
		inner[i] = on
		d := 1
		if !on {
			d = -1
		}
		layerCount[spans[i].Layer] += d
		total += d
	}
	parentOf := func(i int) int {
		if p, ok := index[spans[i].Parent]; ok && spans[i].Parent != 0 {
			return p
		}
		return -1
	}
	out := attribution{Layers: map[string]float64{}}
	var last int64
	for k, ev := range events {
		if k > 0 && total > 0 && ev.t > last {
			dt := float64(ev.t-last) / 1e9
			out.Wall += dt
			for layer, c := range layerCount {
				if c > 0 {
					out.Layers[layer] += dt * float64(c) / float64(total)
				}
			}
		}
		last = ev.t
		i := ev.i
		p := parentOf(i)
		if ev.start {
			active[i] = true
			setInner(i, busyKids[i] == 0)
			if p >= 0 {
				busyKids[p]++
				setInner(p, false)
			}
		} else {
			active[i] = false
			setInner(i, false)
			if p >= 0 {
				busyKids[p]--
				if busyKids[p] == 0 && active[p] {
					setInner(p, true)
				}
			}
		}
	}
	out.Unattributed = out.Layers[""]
	delete(out.Layers, "")
	return out
}

// traceFile is the traced run's output: every span plus the attribution.
type traceFile struct {
	Run          string      `json:"run"`
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	DroppedSpans int64       `json:"dropped_spans"`
	Attribution  attribution `json:"attribution"`
	Spans        []span      `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// kindOfKey is the engine's job kind for a key: the experiment id of a
// top-level "qsd|<id>|..." key, else the key's first segment.
func kindOfKey(key string) string {
	first, rest, ok := strings.Cut(key, "|")
	if !ok {
		return first
	}
	if first == "qsd" {
		id, _, _ := strings.Cut(rest, "|")
		return id
	}
	return first
}
