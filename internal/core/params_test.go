package core

import (
	"net/url"
	"slices"
	"testing"

	"speedofdata/internal/engine"
)

// TestParamTable checks the table against the registry: the defaults pass
// validation and the server bounds, and every advertised name is a row.
// (A Default whose type differs from its field's panics at package init.)
func TestParamTable(t *testing.T) {
	def := DefaultSettings()
	if err := def.Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	if err := def.checkServerBounds(); err != nil {
		t.Errorf("defaults out of server bounds: %v", err)
	}
	if def.Bits != NewExperiments().Bits {
		t.Errorf("default bits %d, NewExperiments bits %d", def.Bits, NewExperiments().Bits)
	}
	for _, info := range ExperimentInfos() {
		for _, name := range info.Params {
			if p := paramIndex[name]; p == nil || p.Name != name {
				t.Errorf("%s advertises %q, which is not a parameter-table name", info.ID, name)
			}
		}
	}
}

// TestIgnoredParamsLeaveOutputAndKey runs every registry experiment at a
// small width and, for each table row the experiment does not honour,
// changes that row: the rendered text and the job key must both stay put.
func TestIgnoredParamsLeaveOutputAndKey(t *testing.T) {
	// A different valid value for every row (conf is only valid with ci,
	// and every experiment that ignores conf ignores ci too).
	variants := map[string]string{
		"bits": "5", "trials": "3000", "seed": "7", "buckets": "7",
		"max-scale": "2", "benchmark": "QRCA", "arch": "fm", "buffer": "5",
		"tiles": "9", "faults": "1", "sparse": "true", "bitsliced": "true",
		"ci": "0.2", "conf": "0.9&ci=0.2",
	}
	base := DefaultSettings()
	base.Bits, base.Trials, base.MaxScale = 4, 2000, 4
	eng := engine.New(2)
	render := func(id string, s Settings) string {
		e := NewExperiments()
		e.Bits, e.Engine = s.Bits, eng
		sec, err := RunExperiment(e, id, s.RunParams)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return sec.Text()
	}
	for _, id := range ExperimentIDs() {
		want, wantKey := render(id, base), JobKey(id, base)
		for _, p := range paramTable {
			if slices.Contains(registry[id].info.Params, p.Name) {
				continue
			}
			v, ok := variants[p.Name]
			if !ok {
				t.Fatalf("no variant value for parameter %q", p.Name)
			}
			s, err := ParseQuery(p.Name+"="+v, base)
			if err != nil || s == base {
				t.Fatalf("%s=%s: variant rejected or no change (%v)", p.Name, v, err)
			}
			if got := render(id, s); got != want {
				t.Errorf("%s: ignored parameter %s=%s changed the output", id, p.Name, v)
			}
			if key := JobKey(id, s); key != wantKey {
				t.Errorf("%s: ignored parameter %s=%s changed the key: %s vs %s", id, p.Name, v, key, wantKey)
			}
		}
	}
}

// TestJobKeyShape pins the top-level key layout the engine's kind label and
// the benchmark's span attribution parse: "qsd|<id>|v2|name=value...".
func TestJobKeyShape(t *testing.T) {
	s := DefaultSettings()
	for id, want := range map[string]string{
		"table5":   "qsd|table5|v2",
		"table2":   "qsd|table2|v2|bits=32",
		"figure15": "qsd|figure15|v2|bits=32|benchmark=QCLA|max-scale=64|arch=",
		"fig4":     "qsd|fig4|v2|trials=200000|seed=1|sparse=false|bitsliced=false|ci=0|conf=0",
	} {
		if got := JobKey(id, s); got != want {
			t.Errorf("JobKey(%s) = %q, want %q", id, got, want)
		}
	}
}

// TestValueSpellingsShareOneKey checks that every accepted spelling of a
// benchmark or architecture parses to its canonical name, so one result has
// one job key, and that the canonical spellings keep their keys.
func TestValueSpellingsShareOneKey(t *testing.T) {
	const want = "qsd|figure15|v2|bits=32|benchmark=QRCA|max-scale=64|arch=Fully-Multiplexed"
	for _, q := range []string{
		"benchmark=QRCA&arch=Fully-Multiplexed",
		"benchmark=qrca&arch=fm",
		"benchmark=Qrca&arch=fully_multiplexed",
		"benchmark=QRCA&arch=FULLYMULTIPLEXED",
	} {
		s, err := ParseQuery(q, DefaultSettings())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if s.Benchmark != "QRCA" || s.Arch != "Fully-Multiplexed" {
			t.Errorf("%s parsed to benchmark %q, arch %q", q, s.Benchmark, s.Arch)
		}
		if got := JobKey("figure15", s); got != want {
			t.Errorf("%s: key %q, want %q", q, got, want)
		}
	}
	s := DefaultSettings()
	s.Benchmark, s.Arch = "qcla", "gcqla"
	if err := s.Validate(); err != nil || s.Benchmark != "QCLA" || s.Arch != "GCQLA" {
		t.Errorf("Validate left benchmark %q, arch %q (%v)", s.Benchmark, s.Arch, err)
	}
}

// FuzzQueryParams feeds arbitrary raw query strings to the server's parser:
// it must never panic, and must return an error or settings that pass
// Validate and every server bound.  Re-encoding those settings and parsing
// them again must give the same settings and the same job keys.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"", "bits=8&format=text", "scale=5&max-scale=6", "trials=5&trials=5",
		"bogus=1", "ci=0.1&conf=0.9", "benchmark=qrca&arch=fm", "%zz",
		"sparse=1&bitsliced=1", "ci=-0", "seed=-9223372036854775808", "conf=NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s, err := ParseQuery(raw, DefaultSettings(), "format")
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%q parsed to invalid settings: %v", raw, err)
		}
		if err := s.checkServerBounds(); err != nil {
			t.Fatalf("%q parsed past a server bound: %v", raw, err)
		}
		q := url.Values{}
		for _, p := range paramTable {
			q.Set(p.Name, p.text(&s))
		}
		again, err := ParseQuery(q.Encode(), DefaultSettings(), "format")
		if err != nil || again != s {
			t.Fatalf("%q: re-encoded %q parsed to %+v, %v; want %+v", raw, q.Encode(), again, err, s)
		}
		for _, id := range ExperimentIDs() {
			if JobKey(id, again) != JobKey(id, s) {
				t.Fatalf("%q: %s key changed on re-parse", raw, id)
			}
		}
	})
}
