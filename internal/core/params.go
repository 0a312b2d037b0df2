package core

import (
	"flag"
	"fmt"
	"maps"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"speedofdata/internal/circuits"
	"speedofdata/internal/engine"
	"speedofdata/internal/microarch"
	"speedofdata/internal/noise"
)

// Settings is one complete run-parameter set, the one the parameter table
// binds: the operand width an Experiments runner carries plus RunParams.
type Settings struct {
	Bits int
	RunParams
}

// Param is one row of the run-parameter table, which generates the qsd flags,
// the query parsing and bounds, the per-field checks, the usage and the job
// key.  ExperimentInfo.Params says which experiments honour a row.
type Param struct {
	// Name is the flag and query spelling; Aliases are extra query spellings.
	Name    string
	Aliases []string
	// Default is the paper's setting; its Go type (int, int64, float64,
	// bool or string) is the row's kind and must be the bound field's.
	Default any
	Doc     string
	// Max caps what one HTTP request may ask for and Min floors positive
	// values (0 = none); the CLI on the operator's machine is unbounded.
	Max, Min float64
	// Field names the row's storage in a Settings: a RunParams field or Bits.
	Field string
	index []int // Field's index path, resolved once
	// check rejects a value no run can use, given the field's pointer; it
	// may rewrite an accepted value to its one canonical spelling, so every
	// spelling of a result shares one job key.
	check func(name string, v any) error
}

// paramTable declares every run parameter once, in usage order.
var paramTable = []Param{
	{Name: "bits", Field: "Bits", Default: 32, Doc: "benchmark operand width", Max: 128, check: positive},
	{Name: "trials", Field: "Trials", Default: noise.DefaultTrials, Doc: "Monte Carlo trials (the trial cap under ci)", Max: 10_000_000, check: positive},
	{Name: "seed", Field: "Seed", Default: int64(1), Doc: "Monte Carlo seed"},
	{Name: "buckets", Field: "Buckets", Default: 20, Doc: "time buckets of the ancilla demand profiles (20 matches the paper's plots)", Max: 100_000, check: positive},
	{Name: "max-scale", Aliases: []string{"scale"}, Field: "MaxScale", Default: microarch.DefaultMaxScale, Doc: "largest resource scale swept", Max: 4096, check: positive},
	{Name: "benchmark", Field: "Benchmark", Default: circuits.QCLA.String(), Doc: "benchmark kernel: QRCA, QCLA or QFT",
		check: func(_ string, v any) error { return canonical(v.(*string), circuits.ParseBenchmark) }},
	{Name: "arch", Field: "Arch", Default: "", Doc: "restrict to one architecture: QLA, GQLA, CQLA, GCQLA or Fully-Multiplexed (fm); empty = all",
		check: func(_ string, v any) error {
			if *v.(*string) == "" {
				return nil
			}
			return canonical(v.(*string), microarch.ParseArchitecture)
		}},
	{Name: "buffer", Field: "Buffer", Default: 16, Max: 1_000_000, check: nonNegative,
		Doc: "buffer capacity: encoded ancillae per source, physical qubits per factory crossbar, or EPR pairs per link channel (0 = infinite)"},
	{Name: "tiles", Field: "Tiles", Default: 4, Max: 64, check: positive, Doc: "mesh tile bound: netsweep sweeps powers of two up to it, the other network scenarios plan one mesh of this many tiles"},
	{Name: "faults", Field: "Faults", Default: 4, Max: 64, check: nonNegative, Doc: "netdegrade: mesh boundaries killed one by one, up to this many (capped at the mesh's boundary count)"},
	{Name: "sparse", Field: "Sparse", Default: false, Doc: "use the sparse Monte Carlo sampler (statistically equivalent to the byte-reproducible dense default)"},
	{Name: "bitsliced", Field: "BitSliced", Default: false, Doc: "use the bit-sliced Monte Carlo executor (64 trials per word op; excludes sparse)"},
	{Name: "ci", Field: "CI", Default: 0.0, Min: 0.001, check: fraction,
		Doc: "sequential sampling: run the bit-sliced executor until each uncorrectable rate's relative confidence-interval half-width reaches this value, capped at trials (0 = fixed trials; excludes sparse)"},
	{Name: "conf", Field: "Conf", Default: 0.0, Max: 0.999, check: fraction, Doc: "confidence level of ci (0 = 0.95)"},
}

// paramIndex resolves every name and alias to its row and defaults holds
// the table's defaults, both built once by init.
var (
	paramIndex = map[string]*Param{}
	defaults   Settings
)

func init() {
	for i := range paramTable {
		p := &paramTable[i]
		f, _ := reflect.TypeFor[Settings]().FieldByName(p.Field) // a wrong name panics in Set below
		p.index = f.Index
		for _, name := range append([]string{p.Name}, p.Aliases...) {
			paramIndex[name] = p
		}
		reflect.ValueOf(&defaults).Elem().FieldByIndex(p.index).Set(reflect.ValueOf(p.Default))
	}
}

var positive, nonNegative = atLeast(1, "positive"), atLeast(0, "non-negative")

// atLeast rejects int values below min; rule names the constraint.
func atLeast(min int, rule string) func(string, any) error {
	return func(name string, v any) error {
		if n := *v.(*int); n < min {
			return fmt.Errorf("%s must be %s, got %d", name, rule, n)
		}
		return nil
	}
}

// canonical replaces the string at v with the String of its parsed value,
// or returns the parse error.
func canonical[T fmt.Stringer](v *string, parse func(string) (T, error)) error {
	x, err := parse(*v)
	if err == nil {
		*v = x.String()
	}
	return err
}

// fraction accepts [0, 1), 0 meaning off or default; NaN is rejected too.
func fraction(name string, v any) error {
	if f := *v.(*float64); !(f >= 0 && f < 1) {
		return fmt.Errorf("%s must lie in [0, 1) (0 = off/default), got %v", name, f)
	}
	return nil
}

// Params returns the run-parameter table in usage order.
func Params() []Param { return slices.Clone(paramTable) }

// bind registers the row as a flag on fs writing into s, with the current
// value as the default.
func (p *Param) bind(fs *flag.FlagSet, s *Settings) {
	switch v := p.field(s).(type) {
	case *int:
		fs.IntVar(v, p.Name, *v, p.Doc)
	case *int64:
		fs.Int64Var(v, p.Name, *v, p.Doc)
	case *float64:
		fs.Float64Var(v, p.Name, *v, p.Doc)
	case *bool:
		fs.BoolVar(v, p.Name, *v, p.Doc)
	case *string:
		fs.StringVar(v, p.Name, *v, p.Doc)
	}
}

// parse sets the row's field in s from its text form exactly as the flag
// would, so a value means the same on the command line and in a query.
func (p *Param) parse(s *Settings, raw string) error {
	fs := flag.NewFlagSet(p.Name, flag.ContinueOnError)
	p.bind(fs, s)
	if err := fs.Set(p.Name, raw); err != nil {
		return fmt.Errorf("invalid %s %q: %v", p.Name, raw, err)
	}
	return nil
}

// field returns a pointer to the row's storage in s.
func (p *Param) field(s *Settings) any {
	return reflect.ValueOf(s).Elem().FieldByIndex(p.index).Addr().Interface()
}

// text renders the row's field in s canonically; parse inverts it (%v of
// a float64 is its shortest round-tripping form).
func (p *Param) text(s *Settings) string { return fmt.Sprint(reflect.ValueOf(p.field(s)).Elem()) }

// DefaultSettings returns the paper's standard settings.
func DefaultSettings() Settings { return defaults }

// DefaultRunParams returns the paper's standard settings.
func DefaultRunParams() RunParams { return DefaultSettings().RunParams }

// BindFlags registers every row as a flag on fs writing into s; the current
// values of s are the flag defaults.
func (s *Settings) BindFlags(fs *flag.FlagSet) {
	for _, p := range paramTable {
		p.bind(fs, s)
	}
}

// Validate rejects settings no experiment can run: every row's own check,
// then the rules that span rows.  A value is rejected whether or not the
// requested experiment honours it.  Accepted benchmark and arch values are
// rewritten to their canonical spellings.
func (s *Settings) Validate() error {
	for _, p := range paramTable {
		if p.check != nil {
			if err := p.check(p.Name, p.field(s)); err != nil {
				return err
			}
		}
	}
	// Sparse cannot combine with the bit-sliced executor or the CI mode
	// (which implies bit-sliced); ci+bitsliced is redundant but consistent,
	// so it stays allowed.
	if s.Sparse && (s.BitSliced || s.CI > 0) {
		conflict := []string{"sparse"}
		if s.BitSliced {
			conflict = append(conflict, "bitsliced")
		}
		if s.CI > 0 {
			conflict = append(conflict, "ci")
		}
		return &SamplingConflictError{Selected: conflict}
	}
	if s.Conf != 0 && s.CI == 0 {
		return fmt.Errorf("conf requires ci (a confidence level needs a half-width target)")
	}
	return nil
}

// Validate rejects parameter combinations no experiment can run (the
// operand width lives on Experiments; Settings.Validate checks it).
func (p RunParams) Validate() error { return (&Settings{Bits: 1, RunParams: p}).Validate() }

// checkServerBounds rejects settings asking a shared server for more
// effort than the rows' Max and Min allow.
func (s Settings) checkServerBounds() error {
	for _, p := range paramTable {
		if p.Max == 0 && p.Min == 0 {
			continue
		}
		x := reflect.ValueOf(p.field(&s)).Elem().Convert(reflect.TypeFor[float64]()).Float()
		if p.Max != 0 && x > p.Max {
			return fmt.Errorf("invalid %s: %s exceeds the server limit %s", p.Name, p.text(&s), strconv.FormatFloat(p.Max, 'f', -1, 64))
		}
		if x > 0 && x < p.Min {
			return fmt.Errorf("invalid %s: %s is below the server minimum %s", p.Name, p.text(&s), strconv.FormatFloat(p.Min, 'f', -1, 64))
		}
	}
	return nil
}

// ParseQuery overlays a raw URL query on base and returns settings that pass
// Validate and the server bounds.  Every table name and alias is accepted,
// as are the caller's reserved names (left for the caller to read); any
// other name is an error listing the allowed ones.  Empty values are
// ignored, and a parameter given twice must repeat one value.
func ParseQuery(raw string, base Settings, reserved ...string) (Settings, error) {
	q, err := url.ParseQuery(raw)
	if err != nil {
		return base, fmt.Errorf("malformed query: %v", err)
	}
	s, given := base, map[*Param]string{}
	for _, name := range slices.Sorted(maps.Keys(q)) {
		p := paramIndex[name]
		if p == nil {
			if slices.Contains(reserved, name) {
				continue
			}
			allowed := append(slices.Collect(maps.Keys(paramIndex)), reserved...)
			slices.Sort(allowed)
			return base, fmt.Errorf("unknown parameter %q; allowed: %s", name, strings.Join(allowed, ", "))
		}
		for _, v := range q[name] {
			if v == "" {
				continue
			}
			if err := p.parse(&s, v); err != nil {
				return base, err
			}
			if first, ok := given[p]; ok && first != p.text(&s) {
				return base, fmt.Errorf("conflicting values for %s: %s and %s", p.Name, first, p.text(&s))
			}
			given[p] = p.text(&s)
		}
	}
	if err := s.Validate(); err != nil {
		return base, err
	}
	if err := s.checkServerBounds(); err != nil {
		return base, err
	}
	return s, nil
}

// jobKeyVersion follows the id in every top-level key; bump it when the
// key layout changes.  Inner job keys do not carry it.
const jobKeyVersion = "v2"

// JobKey is the engine key of one experiment run: "qsd|<id>|v2" then
// name=value for exactly the parameters the experiment honours (its
// ExperimentInfo.Params), so a parameter it ignores cannot split its cache
// entry.  id is kept as requested because it labels the rendered section.
func JobKey(id string, s Settings) string {
	canon, _ := CanonicalExperimentID(id)
	k := engine.NewKey("qsd").Str(id).Str(jobKeyVersion)
	for _, name := range registry[canon].info.Params {
		k = k.Str(name + "=" + paramIndex[name].text(&s))
	}
	return k.String()
}
